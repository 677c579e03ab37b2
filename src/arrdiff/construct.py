"""Closed-form basis constructions and basis transport.

Three ways to produce verified bases without a generator sweep: the
explicit family for rank-2 arrangements (every 2-dimensional arrangement
is free at every order), products of factor bases for decomposable
arrangements, and transport of a basis to a localization by translating
towards the flat and extracting homogeneous components.  The rank-2
family is verified by ``point_constant`` (its operators are members by
construction), transported bases by the full ``saito_check``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import lcm
from operator import mul

from .arrangement import Arrangement, FlatRef, localize
from .linalg import RowBasis, nullspace_basis
from .qpoly import Poly, monomial_exponents, substituter, variables
# det_poly is not called here: the benchmark's tracer wraps this binding
from .saito import det_poly, point_constant, saito_check, saito_counts
from .weyl import (DiffOp, block_product, change_variables, directional_power,
                   euler_operator)


def basis_rank_two(arr: Arrangement, order: int) -> list[DiffOp]:
    """A free basis for any 2-dimensional arrangement at any order.

    After an exact coordinate change sending the first hyperplane to
    {x = 0} (every other form then has a nonzero y part and a unique slope
    a_j), the basis consists of cofactor multiples of the powers d_y^m and
    (d_x - a_j d_y)^m, padded out in three regimes by the Euler operator
    (few hyperplanes are missing) or by Q times a completion of the power
    symbols to a full symbol-space basis (order at least the size).  The
    result is transported back to the input coordinates and verified by
    ``point_constant`` before being returned.
    """
    if arr.dim != 2:
        raise ValueError("this construction is specific to dimension 2")
    if order < 1:
        raise ValueError("order must be at least 1")
    n = len(arr)

    if n == 0:
        change = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    else:
        alpha = list(arr.forms[0].coefficients)
        k = 1 if alpha[0] else 0
        change = [alpha, [Fraction(1 if j == k else 0) for j in range(2)]]

    slopes: list[Fraction] = []
    for form in arr.forms[1:]:
        # beta = c0 * alpha + c1 * x_k, read off coordinate 1 - k, then k
        beta = form.coefficients
        c0 = beta[1 - k] / alpha[1 - k]
        c1 = beta[k] - c0 * alpha[k]
        if not c1:
            raise RuntimeError("a line lost its y component")
        slopes.append(c0 / c1)

    x, y = variables(2)
    lines = ([x] if n else []) + [a * x + y for a in slopes]
    q = Poly.one(2)
    for line in lines:
        q = q * line

    def cofactor(index: int) -> Poly:
        out = Poly.one(2)
        for i, line in enumerate(lines):
            if i != index:
                out = out * line
        return out

    def slope_power(a: Fraction) -> DiffOp:
        return directional_power((Fraction(1), -a), order)

    dy_power = directional_power((Fraction(0), Fraction(1)), order)

    ops: list[DiffOp] = []
    if n >= 1:
        ops.append(cofactor(0) * dy_power)
    if 1 <= order <= n - 2:
        ops = [euler_operator(2, order)] + ops
        for j in range(order - 1):
            ops.append(cofactor(j + 1) * slope_power(slopes[j]))
    else:
        for j, a in enumerate(slopes):
            ops.append(cofactor(j + 1) * slope_power(a))
        if order >= n:
            # complete the power symbols to a basis of the order-m symbols
            symbols = monomial_exponents(2, order)
            span = RowBasis(len(symbols))
            powers = [slope_power(a) for a in slopes]
            for op in ([dy_power] if n else []) + powers:
                span.add([op.coefficient(a).constant_value()
                          for a in symbols])
            for i in reversed(range(len(symbols))):  # low x first
                if span.add({i: 1}):
                    ops.append(q * DiffOp.single(2, symbols[i]))

    transported = change_variables(ops, change)
    if not point_constant(transported, arr):
        raise RuntimeError("rank-2 construction failed its determinant check")
    return transported


def product_basis(factor_bases: list[list[list[DiffOp]]]) -> list[DiffOp]:
    """Basis of the product arrangement's order-m module from factor bases.

    Takes per-order bases 0..m for each factor (the order-0 basis is the
    identity operator) and returns the block products of one operator per
    factor whose orders sum to m, each factor on its own variable block of
    the product space, in factor order.  The outermost loop runs over the
    last factor's order, descending, and the earlier factors' orders split
    the rest the same way, recursively; within one split of the orders the
    operators vary with the first factor outermost.
    """
    if not factor_bases or not factor_bases[0] or any(
            len(bases) != len(factor_bases[0]) for bases in factor_bases):
        raise ValueError("need per-order bases 0..m for every factor")
    top = len(factor_bases[0]) - 1
    dims = [bases[0][0].dim for bases in factor_bases]
    for bases, dim in zip(factor_bases, dims):
        for i, ops in enumerate(bases):
            expected = saito_counts(dim, i)[0]
            if len(ops) != expected:
                raise ValueError(f"order-{i} basis must have {expected} "
                                 f"operators, got {len(ops)}")
            for op in ops:
                if op.dim != dim or op.order != i:
                    raise ValueError("inconsistent factor basis")
    # the factors' orders summing to top: the canonical exponents read
    # backwards, so the last factor's order varies slowest
    splits = (c[::-1] for c in monomial_exponents(len(factor_bases), top))
    out = [block_product(ops) for orders in splits
           for ops in iter_product(*(bases[i] for bases, i
                                     in zip(factor_bases, orders)))]
    if len(out) != saito_counts(sum(dims), top)[0]:
        raise RuntimeError("product basis has the wrong operator count")
    return out


def find_flat_point(arr: Arrangement, flat: FlatRef) -> list[Fraction]:
    """An exact rational point on the flat avoiding all other hyperplanes.

    Enumerates integer combinations of a nullspace basis of the flat's
    forms, each direction scaled to a 1 in its last entry, by increasing
    max-norm and returns the first point where no non-containing form
    vanishes.  The points are tested on integers, as scale * point with
    scale the lcm of the directions' last entries, against the forms'
    integral coefficients; only the point returned becomes Fractions.
    """
    localize(arr, flat)  # rejects a flat that is not closed
    outside = [form.integral_coefficients for i, form in enumerate(arr.forms)
               if i not in flat.generators]
    directions = nullspace_basis([list(arr.forms[i].coefficients)
                                  for i in sorted(flat.generators)], arr.dim)
    if len(directions) != arr.dim - flat.rank:
        raise RuntimeError("flat directions do not match the flat's rank")
    lasts = [d[max(d)] for d in directions]
    scale = lcm(*lasts)
    # columns[j][k]: coordinate j of direction k, times scale / its last
    columns = [[d.get(j, 0) * (scale // last)
                for d, last in zip(directions, lasts)]
               for j in range(arr.dim)]
    for radius in range(51):
        shell = [c for c in iter_product(range(-radius, radius + 1),
                                         repeat=len(directions))
                 if max(map(abs, c), default=0) == radius]
        for combo in shell:
            scaled = [sum(map(mul, combo, column)) for column in columns]
            if all(sum(map(mul, form, scaled)) for form in outside):
                return [Fraction(v, scale) for v in scaled]
    raise RuntimeError("no suitable point found on the flat")  # unreachable


def localize_basis(ops: list[DiffOp], arr: Arrangement,
                   flat: FlatRef) -> list[DiffOp]:
    """Transport a verified basis to a localization of the arrangement.

    Translating the basis towards a generic point of the flat keeps every
    operator inside the localized module; the translated determinant has a
    nonzero constant where the non-containing forms used to vanish, so
    some choice of one homogeneous component per operator reaches the
    minimal possible determinant degree t * |A_X| and is itself a basis.
    Only component selections with that exact degree sum are searched, in
    increasing per-operator degrees.

    The caller must pass a basis that ``saito_check`` has accepted; it is
    not checked again.  The result is verified either way: the winning
    selection goes through the full ``saito_check`` on A_X, and a
    RuntimeError is raised when no selection passes.  A zero operator
    raises ValueError naming its index; another malformed tuple may raise
    ValueError first.
    """
    if not ops:
        raise ValueError("need a basis to transport")
    order = ops[0].order
    sub = localize(arr, flat)
    _, det_exponent = saito_counts(arr.dim, order)
    target = det_exponent * len(sub)
    point = find_flat_point(arr, flat)
    # one substitution for every coefficient keeps the powers of the
    # translation images x_i + w_i
    translate = substituter(arr.dim, [x + Poly.constant(arr.dim, w)
                                      for x, w in zip(variables(arr.dim),
                                                      point)])

    components: list[list[tuple[int, DiffOp]]] = []
    for index, op in enumerate(ops):
        if op.is_zero():
            raise ValueError(f"operator {index} is zero, so the operators "
                             "are not a basis")
        by_degree: dict[int, dict] = {}
        for a, p in op.terms():
            for degree, part in translate(p).homogeneous_components():
                by_degree.setdefault(degree, {})[a] = part
        pieces = [(degree, DiffOp(op.dim, op.order, groups))
                  for degree, groups in sorted(by_degree.items())]
        components.append(pieces)

    min_rest = [0] * (len(components) + 1)
    max_rest = [0] * (len(components) + 1)
    for i in range(len(components) - 1, -1, -1):
        degrees = [d for d, _ in components[i]]
        min_rest[i] = min_rest[i + 1] + min(degrees)
        max_rest[i] = max_rest[i + 1] + max(degrees)

    def choices(i: int, degree_sum: int):
        # (degree sum, piece) for operator i, while the target is reachable
        for degree, piece in components[i]:
            total = degree_sum + degree
            if total + min_rest[i + 1] > target:
                break
            if total + max_rest[i + 1] >= target:
                yield total, piece

    # depth first on a stack: levels[i] yields operator i's choices
    selection: list[DiffOp] = []
    levels = [choices(0, 0)]
    while levels:
        step = next(levels[-1], None)
        if step is None:  # backtrack
            levels.pop()
            if selection:
                selection.pop()
            continue
        selection.append(step[1])
        if len(selection) < len(components):
            levels.append(choices(len(selection), step[0]))
        elif point_constant(selection, sub):
            break  # homogeneous members of degree sum t * |A_X|
        else:
            selection.pop()
    else:
        raise RuntimeError("component selection failed; transported basis "
                           "did not yield the expected determinant")
    result = list(selection)
    if not saito_check(result, sub):
        raise RuntimeError("transported basis failed its re-verification")
    return result

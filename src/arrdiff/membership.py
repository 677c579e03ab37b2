"""Deciding whether an operator preserves an arrangement's ideal.

An order-m operator theta preserves the principal ideal of the defining
polynomial exactly when it preserves alpha_H * S for every hyperplane H.
Since theta(alpha * f) = alpha * theta(f) + [theta, alpha](f), that holds
exactly when every coefficient of the order-(m-1) commutator
[theta, alpha_H] is divisible by alpha_H.  The coefficient at d^b
(|b| = m-1) is g_b = sum_j alpha_j * (b_j + 1) * c_(b + e_j), where c_a is
theta's coefficient at d^a, and theta(alpha * x^b) = b! * g_b, so this is
the grid of divisibility checks "the image of alpha_H * x^b lies in
alpha_H * S" taken over every H and every degree-(m-1) monomial x^b.

Divisibility does not change under a nonzero scalar, so the grid is
checked on the integer-scaled operator (its coefficients times the lcm
of their denominators) and integer-scaled forms: the g_b are then
integral, and so is their reduction scaled by a power of the integral
form's coefficient at the variable it eliminates (see
:class:`arrdiff.qpoly.LinearForm`), which is what is
tested for zero.  A witness image is computed from the operator as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .arrangement import Arrangement
from .qpoly import (LinearForm, MultiIndex, Poly, monomial_exponents,
                    variables)
from .weyl import DiffOp, directional_power, euler_operator


@dataclass(frozen=True)
class MembershipWitness:
    """First failing cell of the check grid: hyperplane, exponent, image."""

    hyperplane_index: int
    hyperplane: LinearForm
    exponent: MultiIndex
    image: Poly


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    witness: MembershipWitness | None = None

    def __bool__(self) -> bool:
        return self.member


def is_member(op: DiffOp, arr: Arrangement) -> MembershipResult:
    """Check membership via the finite per-hyperplane criterion.

    Order-0 operators are multiplications by polynomials and always
    preserve the ideal.  Cells (hyperplane, exponent b) are checked in
    lexicographic order by reducing g_b modulo the form, on the
    integer-scaled operator (see the module notes); on failure the
    witness is the first violating cell together with the non-divisible
    image of alpha_H * x^b under the operator as given.
    """
    if op.dim != arr.dim:
        raise ValueError(f"dimension mismatch: {op.dim} vs {arr.dim}")
    if op.order == 0:
        return MembershipResult(True)
    coefficients = {a: p.integer_terms() for a, p in op.terms()}
    op_scale = lcm(*[den for _, den in coefficients.values()])
    coefficients = {a: [(mu, c * (op_scale // den)) for mu, c in terms.items()]
                    for a, (terms, den) in coefficients.items()}
    for index, form in enumerate(arr.forms):
        alphas = [(j, c) for j, c in enumerate(form.integral_coefficients)
                  if c]
        for b in monomial_exponents(arr.dim, op.order - 1):
            g = []
            for j, c in alphas:
                scale = c * (b[j] + 1)
                a = b[:j] + (b[j] + 1,) + b[j + 1:]
                g += [(mu, scale * x) for mu, x in coefficients.get(a, ())]
            if form.scaled(g)[0]:
                image = op.apply(form.to_poly() * Poly.monomial(arr.dim, b))
                return MembershipResult(False, MembershipWitness(
                    index, form, b, image))
    return MembershipResult(True)


# kept in the library: paper-suite and the benchmark's data script read it
def shi2_order2_members() -> list[DiffOp]:
    """Six explicit order-2 members for the 3-dimensional coned Shi
    arrangement: the Euler operator plus five degree-4 operators.

    Coordinates follow :func:`make_shi` with ell = 2: (x, y, z) where z is
    the coning variable.
    """
    dim = 3
    x, y, z = variables(dim)
    dxx, dxy, dxz = (2, 0, 0), (1, 1, 0), (1, 0, 1)
    dyy, dyz, dzz = (0, 2, 0), (0, 1, 1), (0, 0, 2)

    theta1 = DiffOp.single(dim, dxx, x * (x - z) * (x - y) * (x - y - z))
    theta2 = DiffOp.single(dim, dyy, y * (x - y) * (y - z) * (x - y - z))
    theta3 = DiffOp.single(dim, dzz, z * (x - z) * (y - z) * (x - y - z))
    theta4 = (x * y * (x - z) * (y - z)) * directional_power((1, 1, 0), 2)
    theta5 = DiffOp(dim, 2, {
        dyy: y * y * (x - y) * (y - z),
        dzz: -(z * z * (x - z) * (y - z)),
        dxy: x * y * (x - y) * (y - z),
        dxz: -(x * z * (x - z) * (y - z)),
        dyz: -(y * z * (y - z) * (y - z)),
    })
    return [euler_operator(dim, 2), theta1, theta2, theta3, theta4, theta5]

"""The commutator of an operator with multiplication by a linear form.

The library decides membership from the coefficients of this commutator
without building it (see :mod:`arrdiff.membership`); the tests build it
here as an independent reference.
"""

from __future__ import annotations

from arrdiff.qpoly import LinearForm, Poly
from arrdiff.weyl import DiffOp


def commutator_with_form(op: DiffOp, form: LinearForm) -> DiffOp:
    """[op, form]: bracketing d^a against one variable replaces a factor of
    that derivative by its multiplicity, so the result has order m-1."""
    if op.order == 0:
        raise ValueError("order-0 operators commute with multiplication")
    if form.dim != op.dim:
        raise ValueError("form dimension mismatch")
    out: dict[tuple[int, ...], Poly] = {}
    for a, coeff in op.terms():
        for i, c in enumerate(form.coefficients):
            if not c or not a[i]:
                continue
            key = tuple(e - 1 if j == i else e for j, e in enumerate(a))
            out[key] = out.get(key, Poly.zero(op.dim)) + coeff * (c * a[i])
    return DiffOp(op.dim, op.order - 1, out)

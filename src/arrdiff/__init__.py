"""Exact computer algebra for central hyperplane arrangements and the
modules of higher-order differential operators attached to them."""

from .arrangement import (Arrangement, Decomposition, FlatRef,
                          arrangement_from_json, decompose, flat_closure,
                          is_generic, localize, make_named, make_shi, product)
from .construct import (basis_rank_two, find_flat_point, localize_basis,
                        product_basis)
from .graded import (FREE, NOT_FREE, UNDECIDED, FreenessReport, GradedBasis,
                     decide_free, decide_orders, graded_dimension)
from .membership import (MembershipResult, MembershipWitness, is_member,
                         shi2_order2_members)
from .qpoly import (LinearForm, Poly, as_fraction, exact_divide,
                    format_fraction, format_poly, monomial_exponents,
                    parse_linear_form, poly_from_json, variables)
from .saito import (SaitoResult, SaitoVerdict, det_poly, point_constant,
                    saito_check, saito_counts)
from .weyl import (DiffOp, block_product, change_variables,
                   coefficient_matrix, diffop_from_json, directional_power,
                   euler_operator)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

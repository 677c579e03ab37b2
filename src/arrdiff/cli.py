"""Command-line front end.

Every subcommand reads and writes JSON with rationals as "p/q" strings,
in canonical orders, so outputs are byte-stable across runs.  Output is
written by a one-pass writer whose bytes are those of
``json.dumps(payload, indent=2)``.  Exit codes:
0 success (or FREE), 1 negative decision (NOT_FREE, non-member, failed
check), 2 invalid input, 3 inconclusive (a ``--max-degree`` below the
complete bound t * |A|).
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from .arrangement import (Arrangement, FlatRef, arrangement_from_json,
                          flat_closure, localize, make_named, make_shi, product)
from .construct import (basis_rank_two, localize_basis, product_basis,
                        shi2_nonfreeness_certificate)
from .graded import (FREE, NOT_FREE, decide_free, decide_orders,
                     graded_dimension)
from .membership import is_member
from .qpoly import Poly, variables
from .saito import det_poly, saito_check
from .weyl import DiffOp, coefficient_matrix, diffop_from_json, euler_operator

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_INPUT = 2
EXIT_UNDECIDED = 3


class InputError(Exception):
    pass


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_arrangement(path: str) -> Arrangement:
    data = _read_json(path)
    try:
        return arrangement_from_json(data)
    except (IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise InputError(f"bad arrangement in {path}: {exc}") from exc


def _load_operators(path: str) -> list[DiffOp]:
    data = _read_json(path)
    if isinstance(data, dict) and "operators" in data:
        data = data["operators"]
    if isinstance(data, dict):
        data = [data]
    try:
        return [diffop_from_json(entry) for entry in data]
    except (IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise InputError(f"bad operator file {path}: {exc}") from exc


def _emit(payload, destination: str | None = None) -> None:
    text = _dumps(payload)
    if destination and destination != "-":
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _dumps(value) -> str:
    """``json.dumps(value, indent=2)``, written in one recursive pass.

    With ``indent`` set the stdlib encodes in pure Python and starts one
    generator per list and dict.  Here str and int elements are formatted
    inline, only non-empty lists and dicts are recursed into, and every
    other value (None, bools, floats, empty containers, and what JSON
    cannot encode) is handed to ``json.dumps`` as it is, so the bytes are
    the stdlib's for every JSON value.
    """
    if value and isinstance(value, (list, tuple, dict)):
        chunks: list[str] = []
        _write(value, "\n", chunks.append)
        return "".join(chunks)
    return json.dumps(value)


def _json_key(key) -> str:
    """A dict key as the stdlib writes it: a str, or the JSON text of an
    int, float, bool or None, quoted."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return _quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not "
                    f"{key.__class__.__name__}")


def _write(value, newline: str, put) -> None:
    """Write a non-empty list or dict whose first line ends in ``newline``
    (a line break and the indent of the line the value opens on)."""
    inner = newline + "  "
    separator = "," + inner
    keyed = isinstance(value, dict)
    if keyed:
        opener, closer, items = "{" + inner, newline + "}", value.items()
    else:
        opener, closer, items = "[" + inner, newline + "]", value
    for item in items:
        if keyed:
            key, item = item
            put(opener + (_quote(key) if type(key) is str
                          else _json_key(key)) + ": ")
        else:
            put(opener)
        opener = separator
        kind = type(item)
        if kind is str:
            put(_quote(item))
        elif kind is int:
            put(int.__repr__(item))
        elif item and isinstance(item, (list, tuple, dict)):
            _write(item, inner, put)
        else:
            put(json.dumps(item))
    put(closer)


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece != ""]
    except ValueError as exc:
        raise InputError(f"bad index list {text!r}") from exc


def _flat_at_seed(arr: Arrangement, text: str) -> tuple[FlatRef, dict]:
    """The flat closing a --seed index list, and its JSON description."""
    seed = _parse_indices(text)
    try:
        flat = flat_closure(arr, seed)
    except IndexError as exc:
        raise InputError(str(exc)) from exc
    return flat, {"seed": sorted(set(seed)),
                  "generators": sorted(flat.generators), "rank": flat.rank}


def _parse_degree_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError as exc:
        raise InputError(f"bad degree range {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_gen(args) -> int:
    arr = make_named(args.name, args.param)
    _emit(arr.to_json(), args.output)
    return EXIT_OK


def _cmd_check_member(args) -> int:
    arr = _load_arrangement(args.arrangement)
    ops = _load_operators(args.operator)
    if len(ops) != 1:
        raise InputError("check-member expects exactly one operator")
    result = is_member(ops[0], arr)
    payload = {"member": result.member, "order": ops[0].order}
    if result.witness is not None:
        payload["witness"] = {
            "hyperplane_index": result.witness.hyperplane_index,
            "hyperplane": result.witness.hyperplane.to_json(),
            "exponent": list(result.witness.exponent),
            "image": result.witness.image.to_json(),
        }
    _emit(payload)
    return EXIT_OK if result.member else EXIT_NEGATIVE


def _cmd_saito(args) -> int:
    arr = _load_arrangement(args.arrangement)
    ops = _load_operators(args.basis)
    try:
        result = saito_check(ops, arr)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(result.to_json())
    return EXIT_OK if result else EXIT_NEGATIVE


def _cmd_graded_dim(args) -> int:
    arr = _load_arrangement(args.arrangement)
    lo, hi = _parse_degree_range(args.degrees)
    if lo < 0 or hi < lo:
        raise InputError(f"bad degree range {args.degrees!r}")
    entries = []
    for degree in range(lo, hi + 1):
        piece = graded_dimension(arr, args.order, degree)
        entry = {"degree": degree, "dimension": piece.dimension}
        if args.operators:
            entry["operators"] = [op.to_json() for op in piece.operators]
        entries.append(entry)
    _emit({"order": args.order, "graded": entries})
    return EXIT_OK


def _cmd_decide(args) -> int:
    arr = _load_arrangement(args.arrangement)
    report = decide_free(arr, args.order, max_degree=args.max_degree,
                         fast_filters=not args.no_fast_filters)
    _emit(report.to_json())
    if report.verdict == FREE:
        return EXIT_OK
    if report.verdict == NOT_FREE:
        return EXIT_NEGATIVE
    return EXIT_UNDECIDED


def _cmd_product(args) -> int:
    first = _load_arrangement(args.first)
    second = _load_arrangement(args.second)
    _emit(product(first, second).to_json(), args.output)
    return EXIT_OK


def _cmd_localize(args) -> int:
    arr = _load_arrangement(args.arrangement)
    flat, described = _flat_at_seed(arr, args.seed)
    payload = localize(arr, flat).to_json()
    payload["flat"] = described
    _emit(payload, args.output)
    return EXIT_OK


def _emit_checked_basis(ops: list[DiffOp], arr: Arrangement, head: dict,
                        degrees_key: str) -> int:
    """Check a basis by the determinant criterion and emit the head keys,
    then its sorted degrees under ``degrees_key``, the operators and the
    check; exit 0 when the check passes and 1 when it fails."""
    result = saito_check(ops, arr)
    _emit({**head,
           degrees_key: sorted(op.homogeneous_degree() for op in ops),
           "operators": [op.to_json() for op in ops],
           "saito": result.to_json()})
    return EXIT_OK if result else EXIT_NEGATIVE


def _cmd_basis_l2(args) -> int:
    arr = _load_arrangement(args.arrangement)
    try:
        ops = basis_rank_two(arr, args.order)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _emit_checked_basis(ops, arr, {"order": args.order}, "degrees")


def _cmd_product_basis(args) -> int:
    first = _load_arrangement(args.first)
    second = _load_arrangement(args.second)
    if args.order < 0:
        raise InputError("order must be nonnegative")
    factor_bases = []
    for arr in (first, second):
        reports = decide_orders(arr, args.order)
        if not all(reports):
            print("a factor is not free at some order <= the requested order",
                  file=sys.stderr)
            return EXIT_NEGATIVE
        factor_bases.append([[DiffOp.identity(arr.dim)]]
                            + [list(r.basis) for r in reports])
    ops = product_basis(factor_bases)
    combined = product(first, second)
    return _emit_checked_basis(ops, combined, {
        "order": args.order,
        "arrangement": combined.to_json(),
    }, "exponents")


def _cmd_localize_basis(args) -> int:
    arr = _load_arrangement(args.arrangement)
    flat, described = _flat_at_seed(arr, args.seed)
    if args.basis:
        ops = _load_operators(args.basis)
        if any(op.order != args.order for op in ops):
            raise InputError(f"the basis to transport must have order "
                             f"{args.order} (-m)")
        if not saito_check(ops, arr):
            raise InputError("input operators must be a verified basis")
    else:
        report = decide_free(arr, args.order)
        if report.verdict != FREE:
            print("the arrangement is not free at this order; supply no "
                  "basis to transport", file=sys.stderr)
            return EXIT_NEGATIVE
        ops = list(report.basis)
    transported = localize_basis(ops, arr, flat)
    sub = localize(arr, flat)
    return _emit_checked_basis(transported, sub, {
        "order": transported[0].order,
        "flat": described,
        "arrangement": sub.to_json(),
    }, "degrees")


def _cmd_shi2_cert(args) -> int:
    certificate = shi2_nonfreeness_certificate()
    _emit(certificate.to_json())
    return EXIT_OK if certificate.consistent else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# the bundled golden-example suite

def _suite_checks():
    x, y = variables(2)
    shi2 = shi2_nonfreeness_certificate()
    shi2_dims = shi2.graded_dimensions
    shi2_m2 = shi2.decision.verdict
    rank2 = arrangement_from_json(
        {"dim": 2, "forms": [["1", "0"], ["0", "1"], ["1", "1"]]})

    def golden_det_rank2():
        theta_e = euler_operator(2, 2)
        theta_1 = DiffOp.single(2, (2, 0), x * (x + y))
        theta_2 = DiffOp.single(2, (0, 2), y * (x + y))
        det = det_poly(coefficient_matrix([theta_e, theta_1, theta_2]))
        q2 = rank2.defining_polynomial() ** 2
        ok = det in (2 * q2, -2 * q2)
        return ok, "det equals +/- 2*Q^2"

    def shi2_decide_m1():
        report = decide_free(make_shi(2), 1)
        ok = (report.verdict == FREE
              and sum(report.exponents) == 7)
        return ok, f"verdict {report.verdict}, exponents {report.exponents}"

    def generic_formula():
        arr = arrangement_from_json(
            {"dim": 3, "forms": ["x", "y", "z", "x+y+z"]})
        first = decide_free(arr, 1)
        second = decide_free(arr, 2)
        ok = first.verdict == NOT_FREE and second.verdict == FREE
        return ok, f"m=1 {first.verdict}, m=2 {second.verdict}"

    def product_exponents():
        bases1 = [[DiffOp.identity(2)], basis_rank_two(rank2, 1),
                  basis_rank_two(rank2, 2)]
        empty_line = Arrangement(1, ())
        bases2 = [[DiffOp.identity(1)],
                  [DiffOp.single(1, (1,), Poly.one(1))],
                  [DiffOp.single(1, (2,), Poly.one(1))]]
        ops = product_basis([bases1, bases2])
        combined = product(rank2, empty_line)
        result = saito_check(ops, combined)
        exponents = sorted(op.homogeneous_degree() for op in ops)
        ok = bool(result) and exponents == [0, 1, 2, 2, 2, 2]
        return ok, f"exponents {exponents}"

    def rank2_family():
        for n in range(2, 5):
            forms = [["1", "0"]] + [[str(a), "1"] for a in range(n - 1)]
            arr = arrangement_from_json({"dim": 2, "forms": forms})
            for order in range(1, 4):
                ops = basis_rank_two(arr, order)
                if not saito_check(ops, arr):
                    return False, f"saito failed at n={n}, m={order}"
                if sum(op.homogeneous_degree() for op in ops) != order * n:
                    return False, f"degree sum off at n={n}, m={order}"
        return True, "saito and degree sums for n=2..4, m=1..3"

    def localization_pipeline():
        arr = make_named("holm-q1-counterexample")
        first = decide_free(arr, 1)
        second = decide_free(arr, 2)
        ok = (first.verdict == NOT_FREE and second.verdict == NOT_FREE
              and first.certificate.get("kind") == "fast_filter"
              and second.certificate.get("kind") == "fast_filter")
        return ok, "both orders refuted through localization"

    def euler_membership():
        ok = bool(is_member(euler_operator(2, 2), rank2))
        return ok, "order-2 Euler operator is a member"

    def displayed_checks():
        theta_1 = DiffOp.single(2, (2, 0), x * (x + y))
        image_xx = theta_1.apply(x * x)
        image_xy = theta_1.apply(x * y)
        image_sx = theta_1.apply((x + y) * x)
        ok = (image_xx == 2 * x * (x + y)
              and rank2.forms[0].divides(image_xx)
              and image_xy.is_zero()
              and image_sx == 2 * x * (x + y)
              and rank2.forms[2].divides(image_sx))
        return ok, "explicit images divide per hyperplane"

    return [
        ("golden-det-rank2", golden_det_rank2),
        ("golden-det-shi2", lambda: (shi2.determinant_matches,
                                     "det equals +/- 4*(y-z)*Q^3")),
        ("shi2-members", lambda: (all(shi2.memberships),
                                  "all six explicit operators are members")),
        ("shi2-graded-dims", lambda: (shi2_dims == (0, 0, 1, 3),
                                      f"graded dimensions {shi2_dims}")),
        ("shi2-decide-m2", lambda: (shi2_m2 == NOT_FREE,
                                    f"verdict {shi2_m2}")),
        ("shi2-decide-m1", shi2_decide_m1),
        ("generic-formula", generic_formula),
        ("product-exponents", product_exponents),
        ("rank2-family", rank2_family),
        ("localization-pipeline", localization_pipeline),
        ("euler-membership", euler_membership),
        ("displayed-divisibility", displayed_checks),
    ]


def _cmd_paper_suite(args) -> int:
    checks = _suite_checks()
    width = max(len(name) for name, _ in checks)
    failures = 0
    for name, check in checks:
        ok, detail = check()
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name.ljust(width)}  {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrdiff",
        description="Exact computations with central hyperplane arrangements "
                    "and their modules of higher-order differential operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a named arrangement as JSON")
    gen.add_argument("name", help="empty | boolean | braid | shi | "
                                  "holm-q1-counterexample")
    gen.add_argument("param", nargs="?", type=int, default=None,
                     help="dimension (or ell for shi)")
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(handler=_cmd_gen)

    member = sub.add_parser("check-member",
                            help="test operator membership, with witness")
    member.add_argument("-a", "--arrangement", default="-")
    member.add_argument("-o", "--operator", required=True)
    member.set_defaults(handler=_cmd_check_member)

    saito = sub.add_parser("saito", help="run the determinant basis check")
    saito.add_argument("-a", "--arrangement", default="-")
    saito.add_argument("-b", "--basis", required=True,
                       help="JSON file with the candidate operators")
    saito.set_defaults(handler=_cmd_saito)

    graded = sub.add_parser("graded-dim",
                            help="dimensions of graded pieces of the module")
    graded.add_argument("-a", "--arrangement", default="-")
    graded.add_argument("-m", "--order", type=int, required=True)
    graded.add_argument("-d", "--degrees", required=True,
                        help="degree or range, e.g. 3 or 0..4")
    graded.add_argument("--operators", action="store_true",
                        help="include basis operators in the output")
    graded.set_defaults(handler=_cmd_graded_dim)

    decide = sub.add_parser("decide", help="decide freeness of the module")
    decide.add_argument("-a", "--arrangement", default="-")
    decide.add_argument("-m", "--order", type=int, required=True)
    decide.add_argument("--max-degree", type=int, default=None,
                        help="override the sweep degree bound t*|A|")
    decide.add_argument("--no-fast-filters", action="store_true")
    decide.set_defaults(handler=_cmd_decide)

    prod = sub.add_parser("product", help="product of two arrangements")
    prod.add_argument("first")
    prod.add_argument("second")
    prod.add_argument("-o", "--output", default=None)
    prod.set_defaults(handler=_cmd_product)

    loc = sub.add_parser("localize",
                         help="localize at the flat closing a seed set")
    loc.add_argument("-a", "--arrangement", default="-")
    loc.add_argument("--seed", required=True,
                     help="comma-separated hyperplane indices, e.g. 0,1,2")
    loc.add_argument("-o", "--output", default=None)
    loc.set_defaults(handler=_cmd_localize)

    bl2 = sub.add_parser("basis-l2",
                         help="closed-form basis for a rank-2 arrangement")
    bl2.add_argument("-a", "--arrangement", default="-")
    bl2.add_argument("-m", "--order", type=int, required=True)
    bl2.set_defaults(handler=_cmd_basis_l2)

    pb = sub.add_parser("product-basis",
                        help="basis of a product from factor bases")
    pb.add_argument("-a", "--first", required=True)
    pb.add_argument("-b", "--second", required=True)
    pb.add_argument("-m", "--order", type=int, required=True)
    pb.set_defaults(handler=_cmd_product_basis)

    lb = sub.add_parser("localize-basis",
                        help="transport a basis to a localization")
    lb.add_argument("-a", "--arrangement", default="-")
    lb.add_argument("-m", "--order", type=int, required=True)
    lb.add_argument("--seed", required=True)
    lb.add_argument("-b", "--basis", default=None,
                    help="operator JSON of order -m to transport "
                         "(default: decide first)")
    lb.set_defaults(handler=_cmd_localize_basis)

    cert = sub.add_parser("shi2-cert",
                          help="order-2 non-freeness transcript for Shi-2")
    cert.set_defaults(handler=_cmd_shi2_cert)

    suite = sub.add_parser("paper-suite",
                           help="run the bundled golden-example checks")
    suite.set_defaults(handler=_cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from arrdiff.arrangement import (Arrangement, arrangement_from_json,
                                 make_named, make_shi, product)
from arrdiff.cli import _dumps, _emit, main
from arrdiff.construct import basis_rank_two
from arrdiff.graded import FREE, decide_free
from arrdiff.membership import shi2_order2_members
from arrdiff.qpoly import Poly, monomial_exponents
from arrdiff.saito import saito_check
from arrdiff.weyl import DiffOp, diffop_from_json, euler_operator
from tests.reference import form_strategy, mixed_order_tuples


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def src_environment():
    """The environment with this checkout's src first on PYTHONPATH, so a
    child process imports the arrdiff under test."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src),
                                                      env.get("PYTHONPATH")]))
    return env


RANK2_JSON = {"dim": 2, "forms": [["1", "0"], ["0", "1"], ["1", "1"]]}


def test_gen_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "shi", "2")
    assert code == 0
    assert arrangement_from_json(json.loads(out)) == make_shi(2)
    target = tmp_path / "arr.json"
    code, _, _ = run_cli(capsys, "gen", "braid", "3", "-o", str(target))
    assert code == 0
    assert len(json.loads(target.read_text())["forms"]) == 3


def test_gen_decide_pipe(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "gen", "shi", "2")
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = run_cli(capsys, "decide", "-m", "2")
    report = json.loads(out)
    assert code == 1
    assert report["verdict"] == "NOT_FREE"


def test_decide_exit_codes(capsys, tmp_path):
    arr = write_json(tmp_path / "a.json", RANK2_JSON)
    code, out, _ = run_cli(capsys, "decide", "-a", arr, "-m", "2")
    assert code == 0 and json.loads(out)["verdict"] == "FREE"
    assert json.loads(out)["exponents"] == [2, 2, 2]
    shi = write_json(tmp_path / "shi.json", make_shi(2).to_json())
    code, out, _ = run_cli(capsys, "decide", "-a", shi, "-m", "2",
                           "--max-degree", "1", "--no-fast-filters")
    assert code == 3 and json.loads(out)["verdict"] == "UNDECIDED"


def test_saito_golden(capsys, tmp_path):
    arr = write_json(tmp_path / "a.json", RANK2_JSON)
    ops = basis_rank_two(arrangement_from_json(RANK2_JSON), 2)
    basis = write_json(tmp_path / "ops.json",
                       {"operators": [op.to_json() for op in ops]})
    code, out, _ = run_cli(capsys, "saito", "-a", arr, "-b", basis)
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "basis"
    assert payload["constant"].lstrip("-") in ("2", "1", "4")
    # wrong count is invalid input
    short = write_json(tmp_path / "short.json",
                       [op.to_json() for op in ops[:2]])
    code, _, err = run_cli(capsys, "saito", "-a", arr, "-b", short)
    assert code == 2 and "error" in err


def test_saito_mixed_orders_exit_two(capsys, tmp_path):
    arr = write_json(tmp_path / "a.json", RANK2_JSON)
    for ops in mixed_order_tuples():
        basis = write_json(tmp_path / "ops.json",
                           [op.to_json() for op in ops])
        code, out, err = run_cli(capsys, "saito", "-a", arr, "-b", basis)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_check_member(capsys, tmp_path):
    arr = write_json(tmp_path / "a.json", make_shi(2).to_json())
    member = shi2_order2_members()[1]
    op_path = write_json(tmp_path / "op.json", member.to_json())
    code, out, _ = run_cli(capsys, "check-member", "-a", arr, "-o", op_path)
    assert code == 0 and json.loads(out)["member"] is True

    bare = {"dim": 3, "order": 2,
            "terms": [{"a": [2, 0, 0], "coef": [[[0, 0, 0], "1"]]}]}
    op_path = write_json(tmp_path / "bad.json", bare)
    code, out, _ = run_cli(capsys, "check-member", "-a", arr, "-o", op_path)
    payload = json.loads(out)
    assert code == 1 and payload["member"] is False
    # the coning hyperplane z passes, so the first violation is at x1
    assert payload["witness"]["hyperplane_index"] == 1


def test_graded_dim_output(capsys, tmp_path):
    arr = write_json(tmp_path / "a.json", make_shi(2).to_json())
    code, out, _ = run_cli(capsys, "graded-dim", "-a", arr, "-m", "2",
                           "-d", "0..3")
    payload = json.loads(out)
    assert code == 0
    assert [entry["dimension"] for entry in payload["graded"]] == [0, 0, 1, 3]


def test_product_and_localize(capsys, tmp_path):
    first = write_json(tmp_path / "a.json", RANK2_JSON)
    second = write_json(tmp_path / "b.json", {"dim": 1, "forms": []})
    code, out, _ = run_cli(capsys, "product", first, second)
    assert code == 0 and json.loads(out)["dim"] == 3

    holm = write_json(tmp_path / "h.json",
                      {"dim": 4, "forms": [["1", "0", "0", "0"],
                                           ["0", "1", "0", "0"],
                                           ["0", "0", "1", "0"],
                                           ["0", "0", "0", "1"],
                                           ["1", "1", "1", "0"],
                                           ["1", "1", "1", "1"]]})
    code, out, _ = run_cli(capsys, "localize", "-a", holm, "--seed", "0,1,2")
    payload = json.loads(out)
    assert code == 0
    assert payload["flat"]["generators"] == [0, 1, 2, 4]
    assert len(payload["forms"]) == 4


def test_basis_l2_and_localize_basis(capsys, tmp_path):
    arr = write_json(tmp_path / "a.json", RANK2_JSON)
    code, out, _ = run_cli(capsys, "basis-l2", "-a", arr, "-m", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["degrees"] == [2, 2, 2]
    assert payload["saito"]["verdict"] == "basis"
    ops = [diffop_from_json(entry) for entry in payload["operators"]]
    assert len(ops) == 3

    code, out, _ = run_cli(capsys, "localize-basis", "-a", arr, "-m", "2",
                           "--seed", "0")
    payload = json.loads(out)
    assert code == 0 and payload["saito"]["verdict"] == "basis"


def test_product_basis_command(capsys, tmp_path):
    first = write_json(tmp_path / "a.json", RANK2_JSON)
    second = write_json(tmp_path / "b.json", {"dim": 1, "forms": []})
    code, out, _ = run_cli(capsys, "product-basis", "-a", first,
                           "-b", second, "-m", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["exponents"] == [0, 1, 2, 2, 2, 2]
    assert payload["saito"]["verdict"] == "basis"


PAPER_SUITE_STDOUT = "\n".join([
    "PASS  golden-det-rank2        det equals +/- 2*Q^2",
    "PASS  golden-det-shi2         det equals +/- 4*(y-z)*Q^3",
    "PASS  shi2-members            all six explicit operators are members",
    "PASS  shi2-graded-dims        graded dimensions (0, 0, 1, 3)",
    "PASS  shi2-decide-m2          verdict NOT_FREE",
    "PASS  shi2-decide-m1          verdict FREE, exponents (1, 3, 3)",
    "PASS  generic-formula         m=1 NOT_FREE, m=2 FREE",
    "PASS  product-exponents       exponents [0, 1, 2, 2, 2, 2]",
    "PASS  rank2-family            saito and degree sums for n=2..4, m=1..3",
    "PASS  localization-pipeline   both orders refuted through localization",
    "PASS  euler-membership        order-2 Euler operator is a member",
    "PASS  displayed-divisibility  explicit images divide per hyperplane",
    "12/12 checks passed",
]) + "\n"


def test_paper_suite_golden_output(capsys):
    code, out, err = run_cli(capsys, "paper-suite")
    assert (code, out, err) == (0, PAPER_SUITE_STDOUT, "")


def test_paper_suite_golden_output_without_asserts():
    # python -O strips assert statements; no check may depend on them
    done = subprocess.run([sys.executable, "-O", "-m", "arrdiff.cli",
                           "paper-suite"], capture_output=True, text=True,
                          env=src_environment(), timeout=120)
    assert (done.returncode, done.stdout, done.stderr) \
        == (0, PAPER_SUITE_STDOUT, "")


def test_paper_suite_rows_run_their_checks(capsys, monkeypatch):
    # x^4 d_x^2 in place of the second published operator is no member
    # and changes the determinant; the other rows do not read the operators
    members = shi2_order2_members()
    members[1] = DiffOp.single(3, (2, 0, 0), Poly.monomial(3, (4, 0, 0)))
    monkeypatch.setattr("arrdiff.cli.shi2_order2_members", lambda: members)
    code, out, err = run_cli(capsys, "paper-suite")
    failed = [line.split()[1] for line in out.splitlines()
              if line.startswith("FAIL")]
    assert (code, failed, err) == (1, ["golden-det-shi2", "shi2-members"], "")
    assert out.splitlines()[-1] == "10/12 checks passed"


def test_closed_standard_output_exits_quietly():
    # as in `arrdiff gen holm-q1 | head -1`: the reader takes one line and
    # closes the pipe; no traceback, nothing on stderr.  The output is
    # 249,334 bytes, more than a pipe holds, so a write always fails
    child = subprocess.Popen([sys.executable, "-m", "arrdiff.cli", "gen",
                              "boolean", "150"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=src_environment())
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == 141
    assert err == b""


def output_digest(out: str) -> tuple[int, str]:
    data = out.encode()
    return len(data), hashlib.sha256(data).hexdigest()


def test_saito_shi2_order2_members_golden_digest(capsys, tmp_path):
    # the six members expand one 6x6 polynomial determinant (det_poly peels
    # it to a 2x2 block, then exact_divide by Q^t) and fail as
    # det / Q^t = -4y + 4z; pinned byte for byte
    arr = write_json(tmp_path / "shi2.json", make_shi(2).to_json())
    basis = write_json(tmp_path / "ops.json", {"operators": [
        op.to_json() for op in shi2_order2_members()]})
    code, out, err = run_cli(capsys, "saito", "-a", arr, "-b", basis)
    assert (code, err) == (1, "")
    assert output_digest(out) == (6413, "5ce22f82dc44222a509d0c22624580931c7"
                                        "da4f86532c31832455f3e6a3a1dc8")


LOCALIZE_SHI3_M1_DIGESTS = {
    "1,8": (4810, "844593d844c8618293dd80be0f79eea53582478eaa1dc697e879d18a31"
                  "c300a4"),
    "0,3": (5837, "ea858bc5be047628aa42176f7a440bd9bc2495f48ae26d2d1d36a598c2"
                  "98a629"),
    "1,2,3": (8378, "9e0f2b1e109d5f346cbb6a24bf4a48ff22f1a404180fb4591157a1"
                    "2038049dde"),
}


def test_localize_basis_shi3_golden_digests(capsys, tmp_path):
    # transported bases (substitution of the translated coefficients) at
    # two rank-2 flats, one of them closing to three planes, and a rank-3
    # flat of seven planes; pinned byte for byte
    arr = write_json(tmp_path / "shi3.json", make_shi(3).to_json())
    for seed, digest in LOCALIZE_SHI3_M1_DIGESTS.items():
        code, out, err = run_cli(capsys, "localize-basis", "-a", arr,
                                 "-m", "1", "--seed", seed)
        assert (code, err) == (0, ""), seed
        assert output_digest(out) == digest, seed


B3_JSON = {"dim": 3, "forms": [
    ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "0"],
    ["1", "-1", "0"], ["1", "0", "1"], ["1", "0", "-1"], ["0", "1", "1"],
    ["0", "1", "-1"]]}


D4_JSON = {"dim": 4, "forms": [
    ["1", "1", "0", "0"], ["1", "-1", "0", "0"], ["1", "0", "1", "0"],
    ["1", "0", "-1", "0"], ["1", "0", "0", "1"], ["1", "0", "0", "-1"],
    ["0", "1", "1", "0"], ["0", "1", "-1", "0"], ["0", "1", "0", "1"],
    ["0", "1", "0", "-1"], ["0", "0", "1", "1"], ["0", "0", "1", "-1"]]}


def test_sweep_route_golden_digests(capsys, tmp_path):
    # bases found by the generator sweep, pinned byte for byte: Shi-2 with
    # x1 -> 2 x1 and x2 -> 3 x2 (forms such as x1 - 3/2 x2) at m=3, B3 at
    # m=2, D4 = {x_i +- x_j} at m=2, B4 at m=2 with its coordinate
    # hyperplanes first and F4 (B4's forms, then x1 +- x2 +- x3 +- x4) at
    # m=1, all FREE by the sweep; the generator overflow of Shi-3 at m=3;
    # and the graded pieces of three forms with non-integral normalized
    # coefficients and of B3
    scaled = {"dim": 3, "forms": [
        [str(2 * int(a)), str(3 * int(b)), c]
        for a, b, c in make_shi(2).to_json()["forms"]]}
    b4 = {"dim": 4, "forms": [
        ["1" if k == i else "0" for k in range(4)] for i in range(4)] + [
        ["1" if k == i else sign if k == j else "0" for k in range(4)]
        for i, j in combinations(range(4), 2) for sign in ("-1", "1")]}
    f4 = {"dim": 4, "forms": b4["forms"] + [
        ["1", a, b, c] for a in ("1", "-1") for b in ("1", "-1")
        for c in ("1", "-1")]}
    for doc, order, digest in (
            (scaled, "3", (40946, "fed8608c33ab0af781906c715f79f1f977e98912b0"
                                  "ad7a764a9115c94b7ed40e")),
            (B3_JSON, "2", (9580, "47d2689042819997f3437c0e1996603c2b9bf0e07f"
                                  "73632a00aaa1c4f1a598a2")),
            (D4_JSON, "2", (43172, "90631ad7ecc78d45f59eb0fa6f57c87e20401f6da"
                                   "82771cf0f7b69fd1e7aba2a")),
            (b4, "2", (37049, "2e104fcaa907f87ae6b782116d07ddac3af4753a62961"
                              "133bb247247cd0251b1")),
            (f4, "1", (22761, "300c25e4c0aa141c5c967634b2201fff8b72d12834f4e"
                              "258766039bc279b52d8"))):
        arr = write_json(tmp_path / "arr.json", doc)
        code, out, err = run_cli(capsys, "decide", "-a", arr, "-m", order)
        assert (code, err) == (0, "")
        certificate = json.loads(out)["certificate"]
        assert certificate["kind"] == "saito_basis" and "via" not in certificate
        assert output_digest(out) == digest
    arr = write_json(tmp_path / "shi3.json", make_shi(3).to_json())
    code, out, err = run_cli(capsys, "decide", "-a", arr, "-m", "3")
    assert (code, err) == (1, "")
    assert json.loads(out)["certificate"]["kind"] == "generator_overflow"
    assert output_digest(out) == (946, "0f7424170a7eed8e3e2eb0e68f0aec1dfdaceb1"
                                       "94f9f42bf97be869fe839ffb7")
    arr = write_json(tmp_path / "forms.json", {"dim": 3, "forms": [
        ["2", "3", "0"], ["0", "5", "7"], ["3", "0", "1"]]})
    code, out, err = run_cli(capsys, "graded-dim", "--operators", "-a", arr,
                             "-m", "2", "-d", "0..3")
    assert (code, err) == (0, "")
    assert output_digest(out) == (106954, "3704051234d341f219c8e50c3ec79268795"
                                          "a1f7192b8fdbc7e5f0ad0e11c363a")
    arr = write_json(tmp_path / "b3.json", B3_JSON)
    code, out, err = run_cli(capsys, "graded-dim", "--operators", "-a", arr,
                             "-m", "2", "-d", "0..4")
    assert (code, err) == (0, "")
    assert output_digest(out) == (24617, "fbcee01c94c934c84ce4aa53a0372f75b52"
                                         "dd0d80086e31dff2637639efb50f6")


def test_check_member_denominator_witness_golden_digest(capsys, tmp_path):
    # d_x^2 fails at 2x + 3y (normalized x + 3/2 y, D = 2), so the witness
    # comes out of the D != 1 branch of the membership reduction; pinned
    # byte for byte
    arr = write_json(tmp_path / "arr.json", {"dim": 3, "forms": [
        "2x+3y", "x+2z", "3y-2z", "x", "2x-5z"]})
    op = write_json(tmp_path / "op.json", {"dim": 3, "order": 2, "terms": [
        {"a": [2, 0, 0], "coef": [[[0, 0, 0], "1"]]}]})
    code, out, err = run_cli(capsys, "check-member", "-a", arr, "-o", op)
    assert (code, err) == (1, "")
    assert output_digest(out) == (303, "a4223f71ace47e61e94f0560ec76e4c3365972"
                                       "289aa6abcb999c5570bd89590c")


def test_product_basis_golden_digests(capsys, tmp_path):
    # product bases from the factors' per-order bases, pinned byte for
    # byte: x, y, x + y times the empty line at m=2, times the line x at
    # m=3 and at m=0 (the identity alone); Shi-2 is not 2-free, so its
    # product with the empty line has no basis at m=2
    rank2 = write_json(tmp_path / "a.json",
                       {"dim": 2, "forms": ["x", "y", "x+y"]})
    empty = write_json(tmp_path / "b0.json", {"dim": 1, "forms": []})
    line = write_json(tmp_path / "bx.json", {"dim": 1, "forms": ["x"]})
    for second, order, digest in (
            (empty, "2", (4462, "c0c52dbebf48c7164804f2c1fbf75e75511ca1511b"
                                "71c49e85550278f0302264")),
            (line, "3", (8009, "875e4dcc6cf2ca3c446d9b70e890d5b3fbf1c03932"
                               "135b6fc54a29525513a438")),
            (line, "0", (969, "2122e9faf2582adb4867b04754ff321eb462e1cf7e9"
                              "b327f12f07b7fada557a7"))):
        code, out, err = run_cli(capsys, "product-basis", "-a", rank2,
                                 "-b", second, "-m", order)
        assert (code, err) == (0, ""), order
        assert output_digest(out) == digest, order
    shi = write_json(tmp_path / "shi2.json", make_shi(2).to_json())
    assert run_cli(capsys, "product-basis", "-a", shi, "-b", empty,
                   "-m", "2") == (1, "", "a factor is not free at some "
                                         "order <= the requested order\n")


def test_decide_shi2_refutations_golden_digests(capsys, tmp_path):
    # Shi-2 times the empty line at m=3 is refuted by the product filter
    # (a product-factor-not-free certificate nesting the factor's
    # generator overflow), and Shi-2 at m=2 by the sweep's overflow;
    # pinned byte for byte
    certificates = []
    for arr, order, digest in (
            (product(make_shi(2), Arrangement(1, ())), "3",
             (704, "6dfc66f88adc639b6b1b3dd2d83903a726d26a58c304d386e9a28"
                   "68f0fe4e44b")),
            (make_shi(2), "2",
             (654, "aa44d89a8a11ae87d067e7aa90b128cb643b94dff2ceb5f60b082"
                   "ad4186284b8"))):
        path = write_json(tmp_path / "arr.json", arr.to_json())
        code, out, err = run_cli(capsys, "decide", "-a", path, "-m", order)
        assert (code, err) == (1, ""), order
        assert output_digest(out) == digest, order
        certificates.append(json.loads(out)["certificate"])
    assert certificates[0]["reason"] == "product-factor-not-free"
    assert certificates[0]["factor_certificate"]["kind"] \
        == certificates[1]["kind"] == "generator_overflow"


B4_JSON = {"dim": 4, "forms": D4_JSON["forms"] + [
    ["1" if i == j else "0" for j in range(4)] for i in range(4)]}


def test_decide_sweep_and_product_golden_digests(capsys, tmp_path):
    # whole decide outputs (stdout, stderr, exit code), pinned byte for
    # byte: B4 at m=2 and Shi-3 at m=1 found FREE by the sweep and Shi-3
    # at m=2 refuted by it, with or without the filters, and braid-4 at
    # m=2, FREE through the product filter (its circuits come from
    # decompose) or through the sweep
    both = ([], ["--no-fast-filters"])
    for doc, order, flags, expected in (
            (B4_JSON, "2", both,
             (0, 37049, "2e104fcaa907f87ae6b782116d07ddac3af4753a62961133bb"
                        "247247cd0251b1")),
            (make_shi(3).to_json(), "1", both,
             (0, 12775, "981b21db87db7ec32844995ba4cf6fcdf606fd303fedf457e0"
                        "e0b1b317654e55")),
            (make_shi(3).to_json(), "2", both,
             (1, 802, "08e0e4bad14033d784340146ff742e0f52e5a5573ca77c719e93"
                      "a678f9201921")),
            (make_named("braid", 4).to_json(), "2", ([],),
             (0, 45992, "8705a59dcae996e6adfc246505c578fb46f1893a3081dc02f9"
                        "37aabfd803382c")),
            (make_named("braid", 4).to_json(), "2", (["--no-fast-filters"],),
             (0, 37505, "7fd316dd1ee2130b48cf957ae9172881bd94e238b6b04c930f"
                        "a2e3e9efcd5cc0"))):
        arr = write_json(tmp_path / "arr.json", doc)
        for flag in flags:
            code, out, err = run_cli(capsys, "decide", "-a", arr, "-m",
                                     order, *flag)
            assert err == "", (order, flag)
            assert (code, *output_digest(out)) == expected, (order, flag)


def holm_q1_decide_json(order, rank, det_exponent, degree_bound):
    return {
        "verdict": "NOT_FREE",
        "order": order,
        "rank": rank,
        "det_exponent": det_exponent,
        "degree_bound": degree_bound,
        "exponents": None,
        "basis": None,
        "certificate": {
            "kind": "fast_filter",
            "reason": "localization-not-free",
            "flat": [0, 1, 2, 4],
            "flat_rank": 3,
            "localization_size": 4,
            "detail": {
                "rule": "product-factor-not-free",
                "factor_forms": ["x1", "x2", "x3", "x1 + x2 + x3"],
                "factor_dim": 3,
                "factor_size": 4,
                "failing_order": 1,
            },
        },
        "degrees_examined": [],
        "audit": ["filter: a localization is not free, so the "
                  "arrangement is not free"],
    }


def test_decide_holm_q1_golden_output(capsys, tmp_path):
    arr = write_json(tmp_path / "holm.json",
                     make_named("holm-q1").to_json())
    for order, counts in ((1, (4, 1, 6)), (2, (10, 4, 24))):
        code, out, err = run_cli(capsys, "decide", "-a", arr,
                                 "-m", str(order))
        expected = json.dumps(holm_q1_decide_json(order, *counts), indent=2)
        assert (code, out, err) == (1, expected + "\n", "")


def test_invalid_inputs_exit_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "decide", "-a", "/nonexistent.json",
                           "-m", "1")
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    code, _, _ = run_cli(capsys, "decide", "-a", str(bad), "-m", "1")
    assert code == 2
    dupes = write_json(tmp_path / "dupes.json",
                       {"dim": 2, "forms": [["1", "0"], ["2", "0"]]})
    code, _, _ = run_cli(capsys, "decide", "-a", dupes, "-m", "1")
    assert code == 2


def test_unwritable_output_file_exits_two(capsys, tmp_path):
    # an output path in a missing directory, and a directory as the path
    arr = write_json(tmp_path / "a.json", RANK2_JSON)
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        for argv in (("gen", "braid", "3"), ("product", arr, arr),
                     ("localize", "-a", arr, "--seed", "0")):
            code, out, err = run_cli(capsys, *argv, "-o", str(target))
            assert code == 2 and out == "", (argv, target)
            assert err.startswith("error:") and len(err.splitlines()) == 1


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    # the stdlib decoder recurses once per bracket
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    arr = write_json(tmp_path / "a.json", RANK2_JSON)
    for argv in (("decide", "-a", str(nested), "-m", "1"),
                 ("saito", "-a", arr, "-b", str(nested))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_gen_bad_parameter_exits_two(capsys):
    # holm-q1 is fixed in dimension 4, so any parameter is an error
    for argv in (("holm-q1-counterexample", "5"), ("holm-q1", "4"),
                 ("braid", "1"), ("shi", "1"), ("empty",), ("octagon",)):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_non_integer_dim_or_order_exits_two(capsys, tmp_path):
    # int() would read 2.7 as 2 and true or 1.5 as 1, and answer
    for value in (2.7, True, 1.5):
        dim = int(value)
        unit = [["1"] + ["0"] * (dim - 1)]
        arr = write_json(tmp_path / "arr.json", {"dim": dim, "forms": unit})
        bad_arr = write_json(tmp_path / "bad.json",
                             {"dim": value, "forms": unit})
        bad_dim = write_json(tmp_path / "op1.json",
                             {"dim": value, "order": 1, "terms": []})
        bad_order = write_json(tmp_path / "op2.json",
                               {"dim": dim, "order": value, "terms": []})
        for argv in (("decide", "-a", bad_arr, "-m", "1"),
                     ("check-member", "-a", arr, "-o", bad_dim),
                     ("check-member", "-a", arr, "-o", bad_order)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error:") and len(err.splitlines()) == 1


def test_product_basis_negative_order_exits_two(capsys, tmp_path):
    first = write_json(tmp_path / "a.json", RANK2_JSON)
    second = write_json(tmp_path / "b.json", {"dim": 1, "forms": []})
    code, out, err = run_cli(capsys, "product-basis", "-a", first,
                             "-b", second, "-m", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_localize_basis_index_out_of_range_exits_two(capsys, tmp_path):
    shi = write_json(tmp_path / "shi2.json", make_shi(2).to_json())
    code, out, err = run_cli(capsys, "localize-basis", "-a", shi, "-m", "1",
                             "--seed", "9")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "out of range" in err


def test_localize_basis_order_must_match_the_basis(capsys, tmp_path):
    arr = write_json(tmp_path / "a.json", RANK2_JSON)
    code, out, _ = run_cli(capsys, "basis-l2", "-a", arr, "-m", "1")
    assert code == 0
    basis = write_json(tmp_path / "b.json", json.loads(out))
    code, out, err = run_cli(capsys, "localize-basis", "-a", arr, "-m", "3",
                             "--seed", "0", "-b", basis)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    code, out, err = run_cli(capsys, "localize-basis", "-a", arr, "-m", "1",
                             "--seed", "0", "-b", basis)
    assert code == 0 and err == ""
    assert json.loads(out)["order"] == 1


def test_localize_basis_rejects_a_non_basis_file(capsys, tmp_path):
    arr = write_json(tmp_path / "a.json", RANK2_JSON)
    triple = [euler_operator(2, 2), DiffOp.single(2, (2, 0), Poly.one(2)),
              DiffOp.single(2, (0, 2), Poly.one(2))]
    errors = []
    for ops in (triple, triple[:2]):  # not a basis; the wrong size
        basis = write_json(tmp_path / "b.json",
                           [op.to_json() for op in ops])
        code, out, err = run_cli(capsys, "localize-basis", "-a", arr,
                                 "-m", "2", "--seed", "0", "-b", basis)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        errors.append(err)
    assert errors[0] == "error: input operators must be a verified basis\n"


def test_localize_basis_of_the_decided_basis_matches_the_default(capsys,
                                                                 tmp_path):
    arr = write_json(tmp_path / "a.json", RANK2_JSON)
    code, out, _ = run_cli(capsys, "decide", "-a", arr, "-m", "2")
    assert code == 0
    basis = write_json(tmp_path / "b.json", json.loads(out)["basis"])
    argv = ["localize-basis", "-a", arr, "-m", "2", "--seed", "0"]
    given_basis = run_cli(capsys, *argv, "-b", basis)
    assert given_basis[0] == 0
    assert given_basis == run_cli(capsys, *argv)


def test_zero_denominator_in_a_form_exits_two(capsys, tmp_path):
    arr = write_json(tmp_path / "a.json",
                     {"dim": 2, "forms": [["1", "0"], ["1/0", "1"]]})
    code, out, err = run_cli(capsys, "decide", "-a", arr, "-m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    ops = write_json(tmp_path / "ops.json",
                     {"dim": 2, "order": 1,
                      "terms": [{"a": [1, 0], "coef": [[[1, 0], "1/0"]]}]})
    code, out, err = run_cli(capsys, "check-member", "-a",
                             write_json(tmp_path / "r.json", RANK2_JSON),
                             "-o", ops)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_strings_where_arrays_are_required_exit_two(capsys, tmp_path):
    # a string is iterable, so it would be read one character at a time:
    # "xy" as the forms x and y, "" as no forms, no terms or zero; an
    # object would be read by its keys, {"1": 5, "0": 7} as the form x
    rank2 = write_json(tmp_path / "r.json", RANK2_JSON)
    for forms in ("xy", "", [{"1": 5, "0": 7}]):
        arr = write_json(tmp_path / "a.json", {"dim": 2, "forms": forms})
        code, out, err = run_cli(capsys, "decide", "-a", arr, "-m", "1")
        assert code == 2 and out == "", forms
        assert err.startswith("error:") and len(err.splitlines()) == 1
    for op in ({"dim": 2, "order": 1, "terms": ""},
               {"dim": 2, "order": 1, "terms": [{"a": [1, 0], "coef": ""}]}):
        ops = write_json(tmp_path / "ops.json", op)
        code, out, err = run_cli(capsys, "check-member", "-a", rank2,
                                 "-o", ops)
        assert code == 2 and out == "", op
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_juxtaposed_terms_in_a_form_exit_two(capsys, tmp_path):
    # "x y" would otherwise be read as x + y, whose arrangement is FREE
    arr = write_json(tmp_path / "a.json", {"dim": 2, "forms": ["x y"]})
    code, out, err = run_cli(capsys, "decide", "-a", arr, "-m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_polynomial_term_shape_exits_two(capsys, tmp_path):
    # an extra entry would otherwise be dropped ([[0, 0], "1", "2"] read as
    # the constant 1, a member of no arrangement), a missing one raise an
    # IndexError
    rank2 = write_json(tmp_path / "r.json", RANK2_JSON)
    for term in ([[0, 0], "1", "2"], [[0, 0]]):
        ops = write_json(tmp_path / "ops.json", {
            "dim": 2, "order": 1,
            "terms": [{"a": [1, 0], "coef": [term]}]})
        code, out, err = run_cli(capsys, "check-member", "-a", rank2,
                                 "-o", ops)
        assert code == 2 and out == "", term
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "[exponents, coefficient]" in err


def test_boolean_rational_exits_two(capsys, tmp_path):
    # bool is an int subclass, so true would otherwise be read as 1
    arr = write_json(tmp_path / "a.json",
                     {"dim": 2, "forms": [[True, "0"], ["0", "1"]]})
    code, out, err = run_cli(capsys, "decide", "-a", arr, "-m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    ops = write_json(tmp_path / "ops.json",
                     {"dim": 2, "order": 1,
                      "terms": [{"a": [1, 0], "coef": [[[1, 0], True]]}]})
    code, out, err = run_cli(capsys, "check-member", "-a",
                             write_json(tmp_path / "r.json", RANK2_JSON),
                             "-o", ops)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_json_outputs_reparse_to_equal_values(capsys, tmp_path):
    arr_path = write_json(tmp_path / "a.json", make_shi(2).to_json())
    code, out, _ = run_cli(capsys, "gen", "shi", "2")
    assert arrangement_from_json(json.loads(out)) == make_shi(2)
    for op in shi2_order2_members():
        assert diffop_from_json(json.loads(json.dumps(op.to_json()))) == op


# ---------------------------------------------------------------------------
# fuzzing the subcommands that read operators

_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.floats(-2, 4, allow_nan=False),
    st.sampled_from(["", "1", "-1/2", "1/0", "x", "x+y", "x1-x2", "2 z"]),
    st.text(max_size=4))
_KEYS = st.sampled_from(["dim", "forms", "order", "terms", "a", "coef",
                         "operators"]) | st.text(max_size=3)
_JSON = st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=4)
                     | st.dictionaries(_KEYS, kids, max_size=4),
                     max_leaves=20)
_COEFFS = st.sampled_from(["1", "-1", "2", "1/2", "-3/2"])


def _paths(doc, path=()):
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _fuzzed(draw, valid):
    """A valid document with up to two of its values replaced by arbitrary
    JSON (the whole document among them)."""
    doc = draw(valid)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        junk = draw(_JSON)
        if not path:
            doc = junk
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = junk
    return doc


@st.composite
def _operator(draw, dim, order):
    exponents = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    terms = draw(st.lists(st.fixed_dictionaries({
        "a": st.sampled_from(monomial_exponents(dim, order)).map(list),
        "coef": st.lists(st.tuples(exponents, _COEFFS).map(list), max_size=3),
    }), max_size=3))
    return {"dim": dim, "order": order, "terms": terms}


@st.composite
def _arrangement(draw):
    """(dim, a valid arrangement document)."""
    dim = draw(st.integers(1, 3))
    forms = draw(st.lists(form_strategy(dim), max_size=4))
    return dim, {"dim": dim,
                 "forms": [f.to_json() for f in dict.fromkeys(forms)]}


@st.composite
def _documents(draw):
    """(arrangement, operator file, subcommand) as one valid input, fuzzed."""
    dim, arrangement = draw(_arrangement())
    command = draw(st.sampled_from(["check-member", "saito",
                                    "localize-basis"]))
    order = draw(st.integers(0, 3))
    count = 1 if command == "check-member" else comb(dim + order - 1, order)
    operators = [draw(_operator(dim, order)) for _ in range(count)]
    if draw(st.booleans()):
        operators = {"operators": operators}
    elif count == 1 and draw(st.booleans()):
        operators = operators[0]
    argv = [command]
    if command == "localize-basis":
        argv += ["-m", str(order), "--seed", "0"]
    return (draw(_fuzzed(st.just(arrangement))),
            draw(_fuzzed(st.just(operators))), argv)


def assert_exits_cleanly(argv, files):
    """Run the CLI with each (flag, document) pair written to a file (a
    flag of None passes the file as a positional argument); the exit code
    is one of the documented ones, with no traceback, and exit 2 prints
    exactly one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        for i, (flag, document) in enumerate(files):
            path = Path(tmp) / f"{i}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            argv += [flag, str(path)] if flag else [str(path)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().splitlines()) == 1
    return code


@given(_documents())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_operator_commands_exit_cleanly(documents):
    arrangement, operators, argv = documents
    flag = "-o" if argv[0] == "check-member" else "-b"
    assert_exits_cleanly(argv, [("-a", arrangement), (flag, operators)])


@st.composite
def _transport_inputs(draw):
    """(arrangement, order, operator documents) for localize-basis: a FREE
    basis from decide_free, or a tuple of the right shape, mostly not a
    basis."""
    dim, document = draw(_arrangement().filter(lambda pair: pair[1]["forms"]))
    order = draw(st.integers(0, 2))
    if draw(st.booleans()):
        report = decide_free(arrangement_from_json(document), order)
        if report.verdict == FREE:
            return document, order, [op.to_json() for op in report.basis]
    count = comb(dim + order - 1, order)
    return document, order, [draw(_operator(dim, order))
                             for _ in range(count)]


@given(_transport_inputs())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_localize_basis_exits_two_exactly_on_a_non_basis(inputs):
    document, order, operators = inputs
    ops = [diffop_from_json(entry) for entry in operators]
    try:
        expected = 0 if saito_check(ops, arrangement_from_json(document)) \
            else 2
    except ValueError:
        expected = 2
    code = assert_exits_cleanly(
        ["localize-basis", "-m", str(order), "--seed", "0"],
        [("-a", document), ("-b", operators)])
    assert code == expected


ARRANGEMENT_COMMANDS = [["decide", "-m", "1"],
                        ["graded-dim", "-m", "1", "-d", "0..2"],
                        ["localize", "--seed", "0"],
                        ["basis-l2", "-m", "1"],
                        ["localize-basis", "-m", "1", "--seed", "0"]]


@given(_fuzzed(_arrangement().map(lambda pair: pair[1])),
       st.sampled_from(ARRANGEMENT_COMMANDS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_arrangement_commands_exit_cleanly(arrangement, argv):
    assert_exits_cleanly(argv, [("-a", arrangement)])


# (subcommand, flags of the two arrangement files)
PAIR_COMMANDS = [(["product"], (None, None)),
                 (["product-basis", "-m", "1"], ("-a", "-b"))]


@given(_fuzzed(_arrangement().map(lambda pair: pair[1])),
       _fuzzed(_arrangement().map(lambda pair: pair[1])),
       st.sampled_from(PAIR_COMMANDS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_two_arrangement_commands_exit_cleanly(first, second, command):
    argv, (flag_first, flag_second) = command
    assert_exits_cleanly(argv, [(flag_first, first), (flag_second, second)])


# ---------------------------------------------------------------------------
# the JSON writer

JSON_TEXT = st.one_of(
    st.text(),
    st.sampled_from(["", "\u00e9", '"', "\\", "\x00\x1f\x7f\n\t\r\b\f",
                     "\u2028\u2029", "\ud800", "\U0001f600", "a\"b\\c/d"]))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), JSON_TEXT, st.integers(),
    st.integers(-10 ** 80, 10 ** 80), st.floats())
JSON_KEYS = st.one_of(JSON_TEXT, st.integers(), st.floats(), st.booleans(),
                      st.none())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, children, max_size=4)),
    max_leaves=40)


@given(JSON_VALUES)
@example([[], {}, [[]], {"a": {}}, [{"b": []}], ()])
@example({1: "x", 2.5: [True, False, None], True: 0, None: -1, "é": "é"})
@example({"big": [2 ** 200, -(3 ** 150)], "nan": [float("nan"),
                                                    float("-inf")]})
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_writer_rejects_what_json_rejects():
    for value in ({(1, 2): 0}, [{1, 2}], {"a": object()}):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as raised:
            _dumps(value)
        assert str(raised.value) == str(expected.value)


def test_emit_to_a_file_writes_what_it_prints(tmp_path):
    for value in (decide_free(make_shi(2), 1).to_json(),
                  {"é": ["\x00", 2 ** 70, None, [], {}]}, [], "text", 7):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            _emit(value)
        target = tmp_path / "out.json"
        _emit(value, str(target))
        printed = buffer.getvalue()
        assert printed == json.dumps(value, indent=2) + "\n"
        assert target.read_bytes() == printed.encode("utf-8")

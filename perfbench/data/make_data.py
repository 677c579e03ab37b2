"""Regenerate the stored inputs of the ``certify`` workload.

Run from the repository root (about 25 s, most of it the Shi-2 order-3
sweep):

    PYTHONPATH=src python3 perfbench/data/make_data.py

Each file holds the arrangement, the operators in arrdiff's operator JSON
format and a note saying how they were produced.  The library's output is
byte-stable, so rerunning this at the same library version rewrites the
files unchanged.
"""

import json
from pathlib import Path

from arrdiff import decide_free, make_shi, shi2_order2_members

HERE = Path(__file__).resolve().parent


def write(name: str, arrangement, operators, note: str) -> None:
    payload = {"note": note, "arrangement": arrangement.to_json(),
               "operators": [op.to_json() for op in operators]}
    (HERE / name).write_text(json.dumps(payload, indent=1) + "\n",
                             encoding="utf-8")


def free_report(arr, order):
    report = decide_free(arr, order)
    if report.verdict != "FREE":
        raise RuntimeError(f"expected FREE at order {order}, got "
                           f"{report.verdict}")
    return report


def main() -> None:
    shi2, shi3 = make_shi(2), make_shi(3)
    report = free_report(shi2, 3)
    write("shi2_m3_basis.json", shi2, report.basis,
          "basis of the order-3 module of the coned Shi-2 arrangement, from "
          "arrdiff decide_free(make_shi(2), 3) (generator sweep); exponents "
          f"{list(report.exponents)}, det/Q^6 = "
          f"{report.certificate['constant']}")
    report = free_report(shi3, 1)
    write("shi3_m1_basis.json", shi3, report.basis,
          "basis of the order-1 module of the coned Shi-3 arrangement, from "
          "arrdiff decide_free(make_shi(3), 1); exponents "
          f"{list(report.exponents)}, det/Q = "
          f"{report.certificate['constant']}")
    write("shi2_order2_members.json", shi2, shi2_order2_members(),
          "the six published order-2 members of the coned Shi-2 "
          "arrangement (Euler operator plus five degree-4 operators), from "
          "arrdiff shi2_order2_members(); their determinant is "
          "+-4(y-z)Q^3, so they are members but not a basis")


if __name__ == "__main__":
    main()

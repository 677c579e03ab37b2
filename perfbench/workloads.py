"""Seeded inputs and job lists for the three benchmark workloads.

The seed only shapes the inputs; arrdiff receives arrangements (parsed
from JSON, as the CLI would) and operators, never the seed.  Every job
carries the expectation the checker compares its answer with, taken from
``checker.EXPECTED`` or from a closed-form rule there.

Why these workloads:

* ``sweep`` decides by the minimal-generator sweep.  The graded nullspace
  is most of its time and determinants are a sliver, so it shows changes to
  graded linear algebra and bypasses basis certification.
* ``certify`` verifies and constructs bases.  Polynomial determinants and
  exact division are most of its time and the nullspace a sliver, so it
  shows changes to certification and bypasses the graded nullspace.
* ``batch`` is 144 small decisions, each serialized as the CLI does.  No
  layer dominates, so per-call overhead added anywhere shows up here.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Callable

import arrdiff.cli
from arrdiff import (arrangement_from_json, basis_rank_two, decide_free,
                     diffop_from_json, flat_closure, localize_basis,
                     saito_check)

import checker
from checker import EXPECTED

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("sweep", "certify", "batch")


@dataclass
class Job:
    """One timed call into arrdiff and how to judge its answer.

    ``inputs`` is what arrdiff is given, as JSON data.  ``run`` is the
    timed call.  ``answer`` turns its raw result into JSON data (outside
    the timed region; answers of repeated passes must be equal), and
    ``check`` raises ``checker.CheckError`` on a wrong answer.
    """

    name: str
    family: str
    inputs: dict
    run: Callable[[], object]
    answer: Callable[[object], object]
    check: Callable[[object], None]


# ---------------------------------------------------------------------------
# arrangements as integer normal vectors

def shi_vectors(ell: int) -> list[list[int]]:
    """Coned Shi arrangement of type A, in the order arrdiff's make_shi uses."""
    dim = ell + 1
    z = dim - 1

    def cov(entries):
        return [entries.get(i, 0) for i in range(dim)]

    out = [cov({z: 1})]
    for i in range(ell):
        out += [cov({i: 1}), cov({i: 1, z: -1})]
    for i in range(ell):
        for j in range(i + 1, ell):
            out += [cov({i: 1, j: -1}), cov({i: 1, j: -1, z: -1})]
    return out


def unit_vectors(dim: int) -> list[list[int]]:
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def braid_vectors(dim: int) -> list[list[int]]:
    return [[1 if k == i else -1 if k == j else 0 for k in range(dim)]
            for i in range(dim) for j in range(i + 1, dim)]


HOLM_Q1 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
           [1, 1, 1, 0], [1, 1, 1, 1]]


def shear(vectors: list[list[int]], i: int, j: int, c: int) -> list[list[int]]:
    """Normals after the coordinate change x_i -> x_i + c x_j."""
    return [[v[k] + c * v[i] if k == j else v[k] for k in range(len(v))]
            for v in vectors]


def product_vectors(first: list[list[int]], dim_first: int,
                    second: list[list[int]], dim_second: int):
    return ([v + [0] * dim_second for v in first]
            + [[0] * dim_first + v for v in second])


def as_json(vectors: list[list[int]], dim: int) -> dict:
    return {"dim": dim, "forms": [[str(c) for c in v] for v in vectors]}


def random_lines(rng: random.Random, n: int) -> list[list[int]]:
    """n distinct lines through the origin of the plane."""
    pool = [[0, 1]] + [[1, s] for s in range(-3, 4)] \
        + [[2, s] for s in (-3, -1, 1, 3)] + [[3, s] for s in (-2, -1, 1, 2)]
    return rng.sample(pool, n)


GENERIC_FOUR = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]


def random_generic(rng: random.Random, n: int, dim: int) -> list[list[int]]:
    """n generic normals in dim with entries in [-2, 2]."""
    while True:
        vectors = [[rng.randint(-2, 2) for _ in range(dim)]
                   for _ in range(n)]
        if checker.is_generic_vectors(vectors):
            return vectors


def signed_permutation(rng: random.Random, vectors: list[list[int]]):
    """The normals in shuffled order after permuting and negating
    coordinates, which maps an arrangement to an isomorphic one."""
    dim = len(vectors[0])
    order = rng.sample(range(dim), dim)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    out = [[signs[k] * v[order[k]] for k in range(dim)] for v in vectors]
    return rng.sample(out, len(out))


# ---------------------------------------------------------------------------
# job builders

def emit_report(report) -> str:
    """Serialize a report exactly as ``arrdiff decide`` prints it."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        arrdiff.cli._emit(report.to_json())
    return buffer.getvalue()


def decide_job(name: str, family: str, vectors, dim: int, order: int,
               expect: dict | None = None) -> Job:
    """``decide_free``, its report serialized as ``arrdiff decide`` prints
    it; ``expect`` adds to the family's EXPECTED row."""
    arr_json = as_json(vectors, dim)
    arr = arrangement_from_json(arr_json)
    expect = {**EXPECTED.get(family, {}), **(expect or {})}
    return Job(name, family, {"arrangement": arr_json, "order": order},
               lambda: emit_report(decide_free(arr, order)), json.loads,
               lambda report: checker.check_report(report, arr_json, expect))


def saito_job(name: str, family: str, stored: dict) -> Job:
    arr = arrangement_from_json(stored["arrangement"])
    ops = [diffop_from_json(op) for op in stored["operators"]]
    expect = EXPECTED[family]
    return Job(name, family, stored, lambda: saito_check(ops, arr), _to_json,
               lambda result: checker.check_saito(
                   result, stored["operators"], stored["arrangement"],
                   expect))


def basis_job(name: str, family: str, inputs: dict,
              call: Callable[[], list], arr_json: dict,
              exponents: list[int]) -> Job:
    """A construction whose result must be a basis of ``arr_json``."""
    return Job(name, family, inputs, call,
               lambda ops: [op.to_json() for op in ops],
               lambda ops: checker.check_basis(ops, arr_json, exponents))


def _to_json(result):
    return result.to_json()


def _load(name: str) -> dict:
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def sweep_jobs(seed: int) -> list[Job]:
    """Shi-2 at m=2, Shi-3 at m=1, and Shi-2 at m=2 under six shears.

    The six shears cover every ordered coordinate pair once, with a seeded
    sign on the coefficient 2, so the seed changes the rationals but hardly
    the cost of a pass.
    """
    rng = random.Random(f"sweep:{seed}")
    shi2 = shi_vectors(2)
    jobs = [decide_job("shi2-m2", "shi2-m2", shi2, 3, 2),
            decide_job("shi3-m1", "shi3-m1", shi_vectors(3), 4, 1)]
    for i, j in permutations(range(3), 2):
        c = rng.choice((-2, 2))
        jobs.append(decide_job(f"shi2-m2-shear{i}{j}{c:+d}",
                               "shi2-m2-coordinate-change",
                               shear(shi2, i, j, c), 3, 2))
    return jobs


# Rank-2 flats of Shi-3, by two hyperplanes: six of two lines, whose
# localizations cost about the same, and one of three lines.  They are
# fixed, not seeded: with seven alike jobs the median of the 18 certify
# jobs falls among them for every seed, where seeded flats, whose costs
# differ by 2x, moved it by 10%.
LOCALIZE_SEEDS = [(1, 8), (2, 11), (3, 6), (4, 9), (5, 7), (6, 7), (0, 3)]


def certify_jobs(seed: int) -> list[Job]:
    """Basis certification, product routes, rank-2 bases, localizations."""
    rng = random.Random(f"certify:{seed}")
    jobs = [saito_job("shi2-m3-saito", "shi2-m3-stored-basis",
                      _load("shi2_m3_basis.json")),
            decide_job("braid3-m3", "braid3-m3", braid_vectors(3), 3, 3)]
    boolean4 = unit_vectors(4)
    for i in range(3):
        boolean4 = shear(boolean4, i + 1, i, 1)
    jobs.append(decide_job("boolean4-shear-m2", "boolean4-shear-m2",
                           boolean4, 4, 2))
    members = _load("shi2_order2_members.json")
    jobs.append(saito_job("shi2-order2-members", "shi2-order2-members",
                          members))

    # six lines drawn once for every seed, which the seed only permutes and
    # negates, so that the seed does not move the cost of these seven jobs
    lines = signed_permutation(rng, random_lines(random.Random("certify"), 6))
    lines_json = as_json(lines, 2)
    plane = arrangement_from_json(lines_json)
    for m in range(1, 8):
        jobs.append(basis_job(
            f"rank2-6lines-m{m}", "rank2-basis",
            {"arrangement": lines_json, "order": m},
            lambda m=m: basis_rank_two(plane, m), lines_json,
            checker.rank_two_exponents(6, m)))

    stored = _load("shi3_m1_basis.json")
    shi3_json = stored["arrangement"]
    shi3 = arrangement_from_json(shi3_json)
    ops = [diffop_from_json(op) for op in stored["operators"]]
    forms = checker.canonical_forms(shi3_json)
    for i, j in LOCALIZE_SEEDS:
        flat = flat_closure(shi3, (i, j))
        members = [k for k, f in enumerate(forms)
                   if checker.rank([forms[i], forms[j], f]) == 2]
        local_json = {"dim": 4, "forms": [shi3_json["forms"][k]
                                          for k in members]}
        jobs.append(basis_job(
            f"shi3-m1-localize-{i}-{j}", "localized-basis",
            {**stored, "flat_seed": [i, j]},
            lambda flat=flat: localize_basis(ops, shi3, flat), local_json,
            [0, 0, 1, len(members) - 1]))
    return jobs


def batch_jobs(seed: int) -> list[Job]:
    """144 small decisions from families with closed-form answers.

    The normals of each job are drawn once, the same for every seed, and
    the seed only permutes and negates their coordinates and orders them
    (which gives an isomorphic arrangement) and picks the shear
    coefficients.  So the cost of each job is the same for every seed:
    normals drawn from the seed moved job_p50_s by 5% between seeds, as
    the median falls among jobs whose cost depends on the coefficients.
    Dimension-4 jobs stay at order 1 (holm-q1 also at order 2, where
    a localization refutes it at once): random dimension-4 products at
    order 2 can take minutes per job, a known defect of the sweep that
    ``certify`` measures at a steady size instead.
    """
    rng = random.Random(f"batch:{seed}")
    shapes = random.Random("batch")
    jobs: list[Job] = []

    def lines(n):
        return signed_permutation(rng, random_lines(shapes, n))

    def add(family, label, vectors, dim, order, expect):
        jobs.append(decide_job(f"{family}-{len(jobs)}-{label}", family,
                               vectors, dim, order, expect))

    for n in range(1, 6):
        for m in range(1, 4):
            for _ in range(4):
                add("rank2-decide", f"l{n}-m{m}", lines(n), 2, m,
                    {"exponents": checker.rank_two_exponents(n, m)})
    # (dim, size, order, copies); four planes are always GENERIC_FOUR
    for dim, n, m, copies in ((3, 4, 1, 6), (3, 4, 2, 3), (3, 5, 1, 5),
                              (3, 5, 2, 5), (4, 5, 1, 6), (4, 6, 1, 5)):
        free = checker.generic_free(n, dim, m)
        for _ in range(copies):
            shape = (GENERIC_FOUR if n == 4
                     else random_generic(shapes, n, dim))
            vectors = signed_permutation(rng, shape)
            add("generic-decide", f"d{dim}-n{n}-m{m}", vectors, dim, m,
                {"verdict": "FREE" if free else "NOT_FREE"})
    for n in range(1, 5):
        for other, m in (("empty1", 1), ("empty1", 2), ("boolean1", 1),
                         ("boolean1", 2), ("boolean2", 1)):
            exponents = checker.product_exponents(
                lambda i: checker.rank_two_exponents(n, i),
                SECOND_FACTORS[other][2], m)
            add("product-decide", f"l{n}x{other}-m{m}",
                _product(lines(n), 2, other), 2
                + SECOND_FACTORS[other][0], m,
                {"verdict": "FREE", "exponents": exponents})
    for other in ("empty1", "boolean1") * 5:
        # four generic planes in dim 3 are not free at order 1, so neither
        # is any product with them
        add("product-decide", f"generic4x{other}-m1",
            _product(signed_permutation(rng, GENERIC_FOUR), 3, other), 4, 1,
            {"verdict": "NOT_FREE"})
    # every ordered coordinate pair, so only the shear coefficients vary
    shi2 = shi_vectors(2)
    for i, j in permutations(range(3), 2):
        for _ in range(2):
            c = rng.choice((-2, -1, 1, 2))
            add("shi2-m1-coordinate-change", f"{i}{j}{c:+d}",
                shear(shi2, i, j, c), 3, 1, {})
    for k, (i, j) in enumerate(permutations(range(4), 2)):
        c, m = rng.choice((-2, -1, 1, 2)), 1 + k % 2
        add("holm-coordinate-change", f"{i}{j}{c:+d}-m{m}",
            shear(HOLM_Q1, i, j, c), 4, m, {})
    return jobs


# second factors of the batch products: (dim, normals, exponents at order i)
SECOND_FACTORS = {
    "empty1": (1, [], lambda i: [0]),
    "boolean1": (1, unit_vectors(1), checker.boolean_exponents),
    "boolean2": (2, unit_vectors(2), lambda i: checker.product_exponents(
        checker.boolean_exponents, checker.boolean_exponents, i)),
}


def _product(first: list[list[int]], dim_first: int, other: str):
    dim_second, second, _ = SECOND_FACTORS[other]
    return product_vectors(first, dim_first, second, dim_second)


BUILDERS = {"sweep": sweep_jobs, "certify": certify_jobs,
            "batch": batch_jobs}


def build(workload: str, seed: int) -> list[Job]:
    return BUILDERS[workload](seed)

"""Per-layer tracing of arrdiff from outside the library.

Each traced function is replaced, at every binding that refers to it, by a
wrapper that records a span (name, start, end, parent span, job) and, for
some functions, extra counts taken from its arguments and result.  arrdiff
modules import each other with ``from .x import y``, so every module that
holds the function gets the wrapper, not only the defining one; methods
are wrapped on their class, under every name that refers to them (so
``Poly.__rmul__`` is wrapped with ``Poly.__mul__``).

Spans stay in memory and are summarized and written out when the run
ends.  A layer's busy time counts only its outermost spans (a recursive
``decide_free`` is not counted twice) and its self time is busy time minus
the time of the spans it called.  Times are normalised to a fixed CPU
speed as job times are (see run.py).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from math import comb
from time import perf_counter_ns


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _max(counts, key, value):
    counts[key] = max(counts.get(key, 0), value)


def _probe_mul(args, result, counts):
    left, right = args
    if result is NotImplemented:  # Poly * DiffOp, handed to DiffOp
        return
    _add(counts, "qpoly.mul.term_products",
         len(left) * (len(right) if type(right) is type(left) else 1))


def _probe_divide(args, result, counts):
    _add(counts, "qpoly.exact_divide.dividend_terms", len(args[0]))
    _add(counts, "qpoly.exact_divide.fails", result is None)


def _probe_nullspace(args, result, counts):
    _add(counts, "linalg.nullspace_basis.cells", len(args[0]) * args[1])
    _add(counts, "linalg.nullspace_basis.nullity", len(result))


def _probe_graded(args, result, counts):
    dim, order, degree = args[0].dim, args[1], args[2]
    _max(counts, "graded.graded_dimension.cols_max",
         comb(dim + order - 1, order) * comb(dim + degree - 1, degree))


def _probe_add(args, result, counts):
    _add(counts, "linalg.RowBasis.add.accepted", bool(result))


def _probe_det(args, result, counts):
    matrix = args[0]
    rows = matrix.rows() if hasattr(matrix, "rows") else matrix
    _max(counts, "saito.det_poly.n_max", len(rows))
    _add(counts, "saito.det_poly.result_terms", len(result))


def _probe_rejects(name):
    def probe(args, result, counts):
        _add(counts, f"{name}.rejects", not result)
    return probe


def _probe_route(args, result, counts):
    cert = result.certificate
    if cert.get("via") == "product-decomposition":
        route = "product"
    elif cert.get("kind") == "fast_filter":
        route = "filter"
    else:
        route = "sweep"
    _add(counts, f"graded.decide_free.route.{route}", 1)


def _probe_emit(args, result, counts):
    _add(counts, "cli.emit.bytes", len(result.encode("utf-8")))


# (layer name, module, attribute, probe); the layer names are the module
# names of src/arrdiff.  cli.emit is the benchmark's serialization of a
# report through arrdiff.cli, as ``arrdiff decide`` prints it.
TARGETS = [
    ("qpoly.mul", "arrdiff.qpoly", "Poly.__mul__", _probe_mul),
    ("qpoly.exact_divide", "arrdiff.qpoly", "exact_divide", _probe_divide),
    ("linalg.nullspace_basis", "arrdiff.linalg", "nullspace_basis",
     _probe_nullspace),
    ("linalg.RowBasis.add", "arrdiff.linalg", "RowBasis.add", _probe_add),
    ("weyl.coefficient_matrix", "arrdiff.weyl", "coefficient_matrix", None),
    ("weyl.change_variables", "arrdiff.weyl", "change_variables", None),
    ("membership.is_member", "arrdiff.membership", "is_member",
     _probe_rejects("membership.is_member")),
    ("saito.det_poly", "arrdiff.saito", "det_poly", _probe_det),
    ("saito.saito_check", "arrdiff.saito", "saito_check",
     _probe_rejects("saito.saito_check")),
    ("graded.graded_dimension", "arrdiff.graded", "graded_dimension",
     _probe_graded),
    ("graded.decide_free", "arrdiff.graded", "decide_free", _probe_route),
    ("arrangement.decompose", "arrdiff.arrangement", "decompose", None),
    ("arrangement.is_generic", "arrdiff.arrangement", "is_generic", None),
    ("arrangement.flat_closure", "arrdiff.arrangement", "flat_closure", None),
    ("arrangement.localize", "arrdiff.arrangement", "localize", None),
    ("construct.basis_rank_two", "arrdiff.construct", "basis_rank_two", None),
    ("construct.product_basis", "arrdiff.construct", "product_basis", None),
    ("construct.localize_basis", "arrdiff.construct", "localize_basis",
     None),
    ("cli.emit", "workloads", "emit_report", _probe_emit),
]

# Layers each workload is built to exercise: a traced run in which one of
# them records no call is wrong.
REQUIRED = {
    "sweep": ["linalg.nullspace_basis", "graded.graded_dimension",
              "linalg.RowBasis.add"],
    "certify": ["saito.det_poly", "qpoly.exact_divide", "qpoly.mul",
                "saito.saito_check", "membership.is_member",
                "weyl.coefficient_matrix", "weyl.change_variables",
                "construct.basis_rank_two", "construct.product_basis",
                "construct.localize_basis"],
    "batch": ["arrangement.decompose", "arrangement.is_generic",
              "arrangement.flat_closure", "arrangement.localize",
              "graded.decide_free", "cli.emit"],
}

# Layers called on every workload, whose times are reported as metrics.
# The others (weyl.change_variables and construct.*, which sweep never
# calls) report counts only: a time metric must not read a constant zero
# on some workload.  Counts and ratios may be 0: that is what the workload
# does (exact_divide.fail_ratio 0 means no division failed).
TIMED = ["qpoly.mul", "qpoly.exact_divide", "linalg.nullspace_basis",
         "linalg.RowBasis.add", "weyl.coefficient_matrix",
         "membership.is_member", "saito.det_poly", "saito.saito_check",
         "graded.graded_dimension", "graded.decide_free",
         "arrangement.decompose", "arrangement.is_generic",
         "arrangement.flat_closure", "arrangement.localize", "cli.emit"]

RATIOS = [  # (metric, numerator count, denominator layer)
    ("linalg.RowBasis.add.accept_ratio", "linalg.RowBasis.add.accepted",
     "linalg.RowBasis.add"),
    ("qpoly.exact_divide.fail_ratio", "qpoly.exact_divide.fails",
     "qpoly.exact_divide"),
    ("saito.saito_check.reject_ratio", "saito.saito_check.rejects",
     "saito.saito_check"),
    ("membership.is_member.reject_ratio", "membership.is_member.rejects",
     "membership.is_member"),
]

COUNTS = [  # extra counts reported as they are, with their unit
    ("linalg.nullspace_basis.cells", "count"),
    ("linalg.nullspace_basis.nullity", "count"),
    ("graded.graded_dimension.cols_max", "count"),
    ("saito.det_poly.n_max", "count"),
    ("saito.det_poly.result_terms", "count"),
    ("qpoly.exact_divide.dividend_terms", "count"),
    ("qpoly.mul.term_products", "count"),
    ("graded.decide_free.route.sweep", "count"),
    ("graded.decide_free.route.filter", "count"),
    ("graded.decide_free.route.product", "count"),
    ("cli.emit.bytes", "bytes"),
]

def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run prints, in order."""
    out = [("trace.wall_s", "s"), ("trace.raw_wall_s", "s")]
    for name, *_ in TARGETS:
        out.append((f"{name}.calls", "count"))
        if name in TIMED:
            out += [(f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    out += [(metric, "ratio") for metric, _, _ in RATIOS]
    out += COUNTS
    return out


class Tracer:
    """Span recorder whose wrappers replace the traced bindings."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, job)
        self.counts: list[dict] = []  # per pass
        self.job = None  # (pass index, job index) of the running job
        self._stack: list[int] = []
        self._restore: list = []
        self.bindings: dict[str, list[str]] = {}

    def start_pass(self) -> None:
        self.counts.append({})

    def _wrap(self, name, func, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if probe is not None:
                probe(args, result, self.counts[-1])
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every target in arrdiff and workloads."""
        modules = [m for key, m in list(sys.modules.items())
                   if key in ("arrdiff", "workloads")
                   or key.startswith("arrdiff.")]
        for name, module_name, attr, probe in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, func_name = attr.rpartition(".")
            owners = [getattr(module, owner_name)] if owner_name else modules
            original = vars(owners[0] if owner_name else module)[func_name]
            wrapper = self._wrap(name, original, probe)
            found = []
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._restore.append((owner, key, original))
                        found.append(f"{owner.__name__}.{key}")
            self.bindings[name] = found

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summarize(self, npasses: int, speed) -> list[dict]:
        """Per pass: calls, busy_ns and self_ns per layer, plus the counts.

        Times are normalised like job times: a span's duration and its
        self time are multiplied by ``speed(start_s, end_s)``, the mean CPU
        speed around the span.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        passes = [{"calls": {}, "busy": {}, "self": {}} for _ in
                  range(npasses)]
        for i, (name, start, end, parent, job) in enumerate(spans):
            out = passes[job[0]]
            factor = speed(start / 1e9, end / 1e9)
            out["calls"][name] = out["calls"].get(name, 0) + 1
            out["self"][name] = out["self"].get(name, 0) \
                + (end - start - child_ns[i]) * factor
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out["busy"][name] = out["busy"].get(name, 0) \
                    + (end - start) * factor
        for out, counts in zip(passes, self.counts):
            out["counts"] = counts
        return passes

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\tpass\tjob\n")
            for name, start, end, parent, job in self.spans:
                handle.write(f"{name}\t{start}\t{end}\t{parent}\t"
                             f"{job[0]}\t{job[1]}\n")


def counts_repeat(passes: list[dict]) -> bool:
    """Whether every pass made the same calls and counts, as it must."""
    return all((p["calls"], p["counts"]) == (passes[0]["calls"],
                                             passes[0]["counts"])
               for p in passes)


def layer_metrics(passes: list[dict], wall_s: float,
                  raw_wall_s: float) -> dict:
    """Per-layer metric values: counts from one pass, times as medians.

    ``wall_s`` is the traced job list's time, measured as the untraced
    ``wall_s`` is, so their ratio is the tracing overhead; ``raw_wall_s``
    is the same time before normalisation.
    """
    first = passes[0]
    counts = first["counts"]
    values = {"trace.wall_s": wall_s, "trace.raw_wall_s": raw_wall_s}
    for name, *_ in TARGETS:
        calls = first["calls"].get(name, 0)
        values[f"{name}.calls"] = calls
        if name in TIMED:
            for key in ("busy", "self"):
                values[f"{name}.{key}_s"] = statistics.median(
                    p[key].get(name, 0) for p in passes) / 1e9
    for metric, numerator, layer in RATIOS:
        calls = first["calls"].get(layer, 0)
        values[metric] = counts.get(numerator, 0) / calls if calls else 0.0
    for metric, _ in COUNTS:
        values[metric] = counts.get(metric, 0)
    return values

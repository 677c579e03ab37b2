"""Source-level rules for the library modules, checked with ast, the
README's library example, run as written, the library bindings the
benchmark's tracer wraps, and the benchmark's jobs with their checker."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "arrdiff"


def modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in paths]


def test_no_assert_statements():
    # python -O strips asserts, so soundness checks must raise instead
    found = [f"{name}:{node.lineno}" for name, tree in modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_floating_point():
    # exact over the rationals: no float literal and no float(...) call
    found = [f"{name}:{node.lineno}" for name, tree in modules()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Constant)
                 and isinstance(node.value, (float, complex)))
             or (isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id == "float")]
    assert found == []


def test_no_private_imports_across_modules():
    found = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] \
                == "arrdiff"
            found += [f"{name}:{node.lineno} {alias.name}"
                      for alias in node.names
                      if internal and alias.name.startswith("_")]
    assert found == []


def test_poly_storage_stays_inside_qpoly():
    # other modules read a polynomial's integer terms and denominator
    # through Poly.integer_terms, never through its private slots
    found = [f"{name}:{node.lineno} {node.attr}" for name, tree in modules()
             if name != "qpoly.py" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("_terms", "_den")]
    assert found == []


def test_every_export_has_a_library_caller():
    # an export that no library module uses is API the library does not
    # need; the submodules that __all__ also lists are skipped
    import arrdiff
    used = set()
    for name, tree in modules():
        if name != "__init__.py":
            used.update(node.id if isinstance(node, ast.Name) else node.attr
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Name, ast.Attribute)))
    exports = [name for name in arrdiff.__all__
               if not isinstance(getattr(arrdiff, name), ModuleType)]
    assert [name for name in exports if name not in used] == []


def test_every_public_member_has_a_library_reader():
    # a public method or dataclass field of a library class that no library
    # module reads as an attribute (obj.name; a def or a field annotation
    # is no such read) is API the library does not need; by name, as above
    read = {node.attr for name, tree in modules() if name != "__init__.py"
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = []
    for name, tree in modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            members = [node.name for node in cls.body
                       if isinstance(node, ast.FunctionDef)]
            if any(_dotted(getattr(d, "func", d)) == "dataclass"
                   for d in cls.decorator_list):
                members += [node.target.id for node in cls.body
                            if isinstance(node, ast.AnnAssign)]
            found += [f"{name}:{cls.name}.{member}" for member in members
                      if not member.startswith("_") and member not in read]
    assert found == []


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```")[0], {})


def test_benchmark_trace_targets_resolve():
    # perfbench/tracing.py wraps arrdiff functions by module and attribute
    # name; a renamed or moved one would only show in a traced run
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    targets = [(module, attribute) for _, module, attribute, _ in
               tracing.TARGETS if module.split(".")[0] == "arrdiff"]
    assert targets
    for module, attribute in targets:
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attribute}")
    assert missing == []


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def test_benchmark_module_bindings_resolve():
    # perfbench's wrap-and-restore test patches these module bindings by
    # name and runs outside this suite; its list is read here by ast
    path = ROOT / "perfbench" / "test_perfbench.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lists = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Assign)
             and [_dotted(t) for t in node.targets] == ["bindings"]]
    assert len(lists) == 1
    bindings = [(_dotted(owner), key.value)
                for owner, key in (pair.elts for pair in lists[0].elts)]
    bindings = [(module, key) for module, key in bindings
                if module and module.split(".")[0] == "arrdiff"]
    assert bindings
    missing = [f"{module}.{key}" for module, key in bindings
               if not callable(getattr(importlib.import_module(module), key,
                                       None))]
    assert missing == []


def test_benchmark_jobs_answer_stably_and_correctly(monkeypatch):
    # every job of every workload at seed 1, run twice as the benchmark's
    # passes run it: the answers must agree and pass the job's own check
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS:
        for job in workloads.build(workload, 1):
            first = job.answer(job.run())
            assert job.answer(job.run()) == first, job.name
            job.check(first)

"""Tests of the benchmark itself (not collected by the library's suite).

    python3 -m pytest perfbench   (from the repository root; under 2 minutes)
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _inputs(workload, seed):
    return [(job.name, job.inputs) for job in workloads.build(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == tracing.per_layer_metrics()
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_binding_is_wrapped_and_restored():
    import arrdiff.cli
    import arrdiff.construct
    import arrdiff.graded
    import arrdiff.saito
    from arrdiff.linalg import RowBasis
    from arrdiff.qpoly import Poly

    bindings = [(arrdiff.graded, "saito_check"),
                (arrdiff.construct, "saito_check"),
                (arrdiff.construct, "det_poly"), (arrdiff.saito, "det_poly"),
                (arrdiff.cli, "decide_free"), (workloads, "decide_free"),
                (Poly, "__mul__"), (Poly, "__rmul__"), (RowBasis, "add")]
    before = [getattr(owner, key) for owner, key in bindings]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, key), original in zip(bindings, before):
            assert getattr(owner, key) is not original, (owner, key)
            assert getattr(owner, key).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert [getattr(owner, key) for owner, key in bindings] == before


def _traced(workload, seed=3):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: metric["value"] for name, metric in
            result["metrics"].items()}


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (_traced(w), _traced(w)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_across_traced_runs(traced_twice, workload):
    first, second = traced_twice[workload]
    units = dict(tracing.per_layer_metrics())
    counts = [name for name, unit in units.items() if unit != "s"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    for layer in tracing.REQUIRED[workload]:
        assert first[f"{layer}.calls"] > 0, layer


def test_traced_runs_show_the_designed_split(traced_twice):
    sweep, certify = traced_twice["sweep"][0], traced_twice["certify"][0]

    def share(values, *layers):
        return sum(values[f"{layer}.busy_s"] for layer in layers) \
            / values["trace.wall_s"]

    assert share(sweep, "linalg.nullspace_basis") > 0.5
    assert share(certify, "linalg.nullspace_basis") < 0.05
    # exact_divide is mostly called inside det_poly, so det_poly's busy
    # time already holds most of it
    assert share(certify, "saito.det_poly") > 0.5
    assert share(sweep, "saito.det_poly", "qpoly.exact_divide") < 0.05


# ---------------------------------------------------------------------------
# the checker rejects doctored answers

def _answer(job):
    return job.answer(job.run())


@pytest.fixture(scope="module")
def shi2_m1_job():
    return next(job for job in workloads.build("batch", 1)
                if job.family == "shi2-m1-coordinate-change")


def test_checker_accepts_the_real_answer(shi2_m1_job):
    shi2_m1_job.check(_answer(shi2_m1_job))


@pytest.mark.parametrize("doctor", [
    lambda r: r.update(verdict="NOT_FREE"),
    lambda r: r.update(exponents=[1, 2, 4]),
    lambda r: r["certificate"].update(constant="7"),
    lambda r: r["basis"].reverse(),
    lambda r: r["basis"][1]["terms"][0]["coef"][0].__setitem__(1, "5"),
], ids=["flipped-verdict", "wrong-exponents", "wrong-constant",
        "reordered-basis", "changed-coefficient"])
def test_checker_rejects_a_doctored_report(shi2_m1_job, doctor):
    report = copy.deepcopy(_answer(shi2_m1_job))
    doctor(report)
    with pytest.raises(checker.CheckError):
        shi2_m1_job.check(report)


def test_checker_rejects_a_wrong_rank_two_exponent():
    job = next(job for job in workloads.build("certify", 1)
               if job.name == "rank2-6lines-m3")
    ops = _answer(job)
    job.check(ops)
    with pytest.raises(checker.CheckError):
        checker.check_basis(ops, job.inputs["arrangement"], [3, 5, 5, 6])


def test_checker_rejects_an_accepted_refutation():
    job = next(job for job in workloads.build("certify", 1)
               if job.family == "shi2-order2-members")
    result = _answer(job)
    job.check(result)
    with pytest.raises(checker.CheckError):
        job.check({**result, "verdict": "basis", "constant": "4"})


def test_doctored_answer_fails_the_run(monkeypatch, capsys):
    def few_jobs(seed):
        jobs = workloads.batch_jobs(seed)[:4]
        real = jobs[0].run
        jobs[0].run = lambda: real().replace('"FREE"', '"NOT_FREE"')
        return jobs

    monkeypatch.setitem(workloads.BUILDERS, "batch", few_jobs)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    code = run.main(["--workload", "batch", "--seed", "1", "--seconds", "0",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (4, 1)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

"""Tests of the benchmark itself: the tracer leaves the library as it found
it and does not change any result, the independent checks read the corpus
coordinates the way the library writes them, and the metrics printed are
the ones BENCHMARK.json declares.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import tcone
import run
import workloads
from tracing import Tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class Slice:
    """A workload cut down to the named cases, for tests that must be quick."""

    def __init__(self, inner, labels):
        self.inner = inner
        self.labels = set(labels)
        self.name = inner.name

    def setup(self, seed):
        return [c for c in self.inner.setup(seed) if c.label in self.labels]

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


SOLVE_SLICE = Slice(workloads.WORKLOADS["corpus-solve"], [
    "orthant4/skew/case_02",             # fails: does not converge
    "psd3/monotone/case_04",             # fails: condition (e) only
    "psd3/strongly_monotone/case_00",
    "vinberg5/strongly_monotone/case_00",
    "vinberg5/P0_R0_candidate/case_03",
])
AUDIT_SLICE = Slice(workloads.WORKLOADS["corpus-audit"], [
    "orthant4/monotone/case_00",
    "psd3/strongly_monotone/case_04",
    "vinberg5/P0_R0_candidate/case_04",
])


def _bindings():
    """Every attribute of every tcone module, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "tcone" or name.startswith("tcone.")):
            for key, value in vars(mod).items():
                out[(name, key)] = id(value)
    out[("TAlgebra", "mul")] = id(tcone.TAlgebra.__dict__["mul"])
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    originals = (tcone.project, tcone.hccp_solver.project,
                 tcone.properties.project, tcone.instances_io.project,
                 tcone.properties.factorize_K, tcone.properties.member_sum,
                 tcone.error_bound.natural_residual)
    with Tracer():
        patched = (tcone.project, tcone.hccp_solver.project,
                   tcone.properties.project, tcone.instances_io.project,
                   tcone.properties.factorize_K, tcone.properties.member_sum,
                   tcone.error_bound.natural_residual)
        assert all(p is not o for p, o in zip(patched, originals))
        assert tcone.TAlgebra.__dict__["mul"].__wrapped__ is not None
    assert _bindings() == before


def test_tracer_restores_after_an_error():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            alg = tcone.build_builtin("orthant", 2)
            tcone.project(alg.from_natural(np.array([np.nan, 1.0])))
    assert tracer.counters["project.errors"] == 1
    assert _bindings() == before


@pytest.mark.parametrize("workload", [SOLVE_SLICE, AUDIT_SLICE],
                         ids=lambda w: w.name)
def test_traced_results_match_untraced(workload):
    cases = workload.setup(3)
    assert len(cases) == len(workload.labels)
    _, _, plain = run.run_pass(workload, cases)
    with Tracer() as tracer:
        _, _, traced = run.run_pass(workload, cases, tracer)
    assert [workload.fingerprint(o) for o in traced] == \
        [workload.fingerprint(o) for o in plain]
    assert tracer.calls["cone_geometry.project"] > 0


def test_solve_checks_name_the_known_failures():
    cases = SOLVE_SLICE.setup(0)
    _, _, outs = run.run_pass(SOLVE_SLICE, cases)
    failures, wrong = run.check_pass(SOLVE_SLICE, cases, outs)
    assert wrong == 0
    assert failures["psd3/monotone/case_04"] == ["verify_solution[e]"]
    assert "converged" in failures["orthant4/skew/case_02"]
    assert set(failures) == {"orthant4/skew/case_02", "psd3/monotone/case_04"}


def test_natural_chart_matches_the_library():
    alg = tcone.build_builtin("psd", 4)
    c = np.arange(1.0, alg.dim_herm + 1)
    x = alg.from_natural(c)
    X = workloads.sym_from_natural(c, 4)
    for i in range(4):
        for j in range(4):
            assert x.coeffs[alg.slice(i, j)][0] == X[i, j]


def test_independent_checks_reject_wrong_answers():
    M = np.eye(3)
    q = np.array([1.0, -1.0, 0.0])
    assert workloads.check_orthant(M, q, np.array([0.0, 1.0, 0.0])) == []
    assert workloads.check_orthant(M, q, np.zeros(3)) == ["orthant:Mx+q>=0"]
    n = 2
    m = n * (n + 1) // 2
    x = np.array([1.0, 0.0, 0.0])          # diag(1, 0)
    q = np.array([0.0, 0.0, 1.0])          # diag(0, 1)
    assert workloads.check_psd(np.zeros((m, m)), q, x, n) == []
    assert workloads.check_psd(np.zeros((m, m)), q, -x, n) == ["psd:eig(x)>=0"]


def _names(section):
    return [m["name"] for m in BENCHMARK[section]]


def test_end_to_end_metrics_match_benchmark_json():
    metrics, _, attempted, failed, _, wrong = run.end_to_end(
        AUDIT_SLICE, 0, seconds=0)
    assert list(metrics) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in metrics.items()} == units
    assert (attempted, failed, wrong) == (3, 0, 0)


def test_per_layer_metrics_match_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    metrics, _, _, _, _, wrong = run.traced(SOLVE_SLICE, 0)
    assert list(metrics) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == units
    assert wrong == 0
    doc = json.loads(next(tmp_path.glob("trace_*.json")).read_text())
    assert any(s["name"] == "hccp_solver.solve" for s in doc["spans"])


def test_workload_names_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(
        w["name"] for w in BENCHMARK["workloads"])

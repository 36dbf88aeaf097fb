"""Self-tests of the benchmark: gates, tracing and the process plumbing.

Run from the repository root:  python -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import biharm  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke_result(workload, trace, seed=3):
    code, lines = run_bench(
        *("--workload", workload, "--seed", str(seed), "--seconds", "1"),
        *("--trace", str(trace), "--size", "smoke"),
    )
    assert code == 0, lines
    return json.loads(lines[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_gates(workload):
    result = smoke_result(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_between_runs(workload):
    first, second = smoke_result(workload, trace=1), smoke_result(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == list(tracing.PER_LAYER_UNITS)
    counts = [name for name, unit in tracing.PER_LAYER_UNITS.items() if unit != "s"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_one_p1_cascade_counts():
    space = biharm.build_space(biharm.unit_square_mesh(8), 1)
    case = biharm.case_sine()
    with tracing.Tracer() as tracer:
        biharm.solve_neumann(space, biharm.NeumannProblem(case.f, case.g, case.h))
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["fem.stiffness_calls"] == 3
    assert metrics["fem.load_calls"] == 2
    assert metrics["fem.geometry_calls"] == 16
    assert metrics["sparse.cg_calls"] == 3
    assert metrics["fem.stiffness_reuse_ratio"] == pytest.approx(1 / 3)


def test_self_times_sum_to_root_duration(tmp_path):
    workload = workloads.TriageDisk(1, "smoke", tmp_path)
    with tracing.Tracer() as tracer:
        assert worker.attempt(workload, 0, tracer)[2] == []
    spans = tracer.spans
    assert [s[0] for s in spans if s[3] == -1] == ["op"]
    assert len(spans) > 20
    own = tracing.self_times(spans)
    assert min(own) > -1e-9
    assert sum(own) == pytest.approx(spans[0][2] - spans[0][1], rel=1e-9, abs=1e-12)


def _bindings():
    modules = {k: m for k, m in sys.modules.items() if k == "biharm" or k.startswith("biharm.")}
    functions = {(k, key): v for k, m in modules.items() for key, v in vars(m).items() if callable(v)}
    methods = {
        (cls.__name__, name): cls.__dict__[name]
        for cls, name in (
            (biharm.Mesh, "validate"),
            (biharm.SparseMatrix, "submatrix"),
            (biharm.Polynomial2D, "__call__"),
        )
    }
    return {**functions, **methods}


def test_wrappers_are_gone_after_the_traced_run():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            during = _bindings()
            raise RuntimeError("leaves the traced block early")
    after = _bindings()
    assert during[("biharm.poisson", "assemble_stiffness")] is not before[("biharm.poisson", "assemble_stiffness")]
    assert during[("Mesh", "validate")] is not before[("Mesh", "validate")]
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_corrupted_sweep_output_counts_as_failed(tmp_path):
    class FlippedCoefficient(workloads.SweepP2Square):
        def compute(self, k):
            solution = super().compute(k)
            if k != 1:
                return solution
            coeffs = solution.sigma_h.coeffs.copy()
            coeffs[len(coeffs) // 2] = np.nextafter(coeffs[len(coeffs) // 2], np.inf)
            sigma_h = biharm.ScalarField(solution.sigma_h.space, coeffs)
            return dataclasses.replace(solution, sigma_h=sigma_h)

    result = worker.timed_ops(FlippedCoefficient(5, "smoke", tmp_path), seconds=0)
    assert result["attempted"] == worker.MIN_TIMED_OPS
    assert result["failed"] == 1
    assert worker.timed_ops(workloads.SweepP2Square(5, "smoke", tmp_path), seconds=0)["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench(
        "--workload", "triage-disk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert code != 0
    assert not any(line.startswith("{") for line in lines)

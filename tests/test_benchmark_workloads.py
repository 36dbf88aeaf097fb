"""The benchmark's workloads still run and pass their gates on this tree.

``perfbench/workloads.py`` drives the library from outside the package, by
module attribute, and ``perfbench/tracing.py`` wraps functions by name. A
change to the library that breaks either (a renamed datum, a dropped
diagnostic, a function the tracer wraps) would otherwise show only in
``python -m pytest perfbench/tests``. This test loads both files by path
and runs each workload's first operation group at its smoke size, traced.
"""

import importlib.util
from pathlib import Path

import pytest

import biharm
import biharm.cli  # noqa: F401  (the tracer wraps cli.run)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracing = load("tracing")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_its_gates_at_smoke_size(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, "smoke", tmp_path)
    with tracing.Tracer() as tracer:
        for k in workload.group:
            assert workload.check(k, workload.compute(k)) == []
    metrics = tracing.layer_metrics(tracer.spans, len(workload.group))
    assert metrics.keys() == tracing.PER_LAYER_UNITS.keys() - {"trace.overhead_s"}


def test_bindings_the_benchmark_self_tests_read_are_there():
    # perfbench/tests/test_perfbench.py compares these before, during and after a traced run
    assert biharm.poisson.assemble_stiffness is biharm.fem.assemble_stiffness
    for cls, name in (
        (biharm.Mesh, "validate"),
        (biharm.SparseMatrix, "submatrix"),
        (biharm.Polynomial2D, "__call__"),
    ):
        assert callable(cls.__dict__[name])

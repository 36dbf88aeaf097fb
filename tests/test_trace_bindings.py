"""The benchmark tracer still finds every function it wraps.

``perfbench/tracing.py`` wraps biharm's functions by name from outside the
package, so renaming or dropping one of them breaks ``--trace 1`` runs. This
test loads the tracer from its file and runs a small cascade under it, so such
a refactor fails here as well.
"""

import importlib.util
from pathlib import Path

import biharm
import biharm.cli  # noqa: F401  (the tracer wraps cli.run)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_puts_them_back():
    tracing = load_tracing()
    before = biharm.poisson.normal_flux
    space = biharm.build_space(biharm.unit_square_mesh(4), 1)
    case = biharm.case_sine()
    with tracing.Tracer() as tracer:
        assert biharm.poisson.normal_flux is not before
        solution = biharm.solve_neumann(space, biharm.NeumannProblem(case.f, case.g, case.h))
        biharm.flux_mismatch(solution, 0.0)
        biharm.l2_error(solution.s_h, case.u_exact)
    assert biharm.poisson.normal_flux is before
    names = {span[0] for span in tracer.spans}
    assert {
        "biharmonic.solve_neumann",
        "poisson.normal_flux",
        "sparse.cg_solve",
        "fem.boundary_geometry",
        "manufactured.l2_error",
    } <= names

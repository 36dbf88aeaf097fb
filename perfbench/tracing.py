"""In-memory span tracing of biharm's public functions, from outside the package.

A ``Tracer`` replaces each traced function or method by a wrapper at every
place a caller looks it up: the module attribute that defines it and every
``from .x import name`` binding in the other ``biharm`` modules, or the class
attribute for methods. Each call records a span (name, start, end, parent,
info) in a list; nothing is written until the caller asks for the metrics.
Leaving the ``with`` block puts every original back, so untraced runs measure
unwrapped code.

Every ``*_s`` layer metric is a self time: a span's duration minus the
durations of its child spans, summed over the spans of that layer. Self
times of all spans under a root partition the root's duration, so the layer
times of one traced operation add up to its wall time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import weakref
from contextlib import contextmanager

# (module, attribute, layer) for every traced public function or method.
TARGETS = (
    ("mesh", "unit_square_mesh", "mesh.build"),
    ("mesh", "unit_disk_mesh", "mesh.build"),
    ("mesh", "refine_uniform", "mesh.build"),
    ("mesh", "Mesh.validate", "mesh.validate"),
    ("mesh", "write_mesh", "mesh.io"),
    ("mesh", "read_mesh", "mesh.io"),
    ("fem", "build_space", "fem.build_space"),
    ("fem", "assemble_stiffness", "fem.stiffness"),
    ("fem", "assemble_load", "fem.load"),
    ("fem", "assemble_mass", "fem.mass"),
    ("fem", "triangle_geometry", "fem.geometry"),
    ("fem", "quad_points", "fem.quadrature"),
    ("fem", "integrate", "fem.quadrature"),
    ("fem", "field_values", "fem.quadrature"),
    ("fem", "boundary_geometry", "fem.quadrature"),
    ("sparse", "cg_solve", "sparse.cg"),
    ("sparse", "matvec", "sparse.matvec"),
    ("sparse", "from_triplets", "sparse.triplets"),
    ("sparse", "SparseMatrix.submatrix", "sparse.submatrix"),
    ("poisson", "solve_dirichlet", "poisson.solve_dirichlet"),
    ("poisson", "normal_flux", "poisson.normal_flux"),
    ("biharmonic", "solve_neumann", "biharmonic.solve_neumann"),
    ("biharmonic", "compatibility_residual", "biharmonic.compat"),
    ("polynomials", "Polynomial2D.__call__", "polynomials.eval"),
    ("polynomials", "harmonic_basis", "polynomials.basis"),
    ("manufactured", "l2_error", "manufactured.error_norm"),
    ("manufactured", "h1_error", "manufactured.error_norm"),
    ("cli", "run", "cli.self"),
)

LAYER_OF = {f"{module}.{attr}": layer for module, attr, layer in TARGETS}
TIME_LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
CALL_LAYERS = (
    "mesh.validate",
    "fem.stiffness",
    "fem.load",
    "fem.mass",
    "fem.geometry",
    "sparse.cg",
    "sparse.matvec",
    "poisson.solve_dirichlet",
    "poisson.normal_flux",
    "biharmonic.compat",
    "polynomials.eval",
)

# Every per-layer metric a traced run reports, with its unit, in report order.
PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in TIME_LAYERS},
    **{f"{layer}_calls": "count" for layer in CALL_LAYERS},
    "mesh.triangles": "count",
    "fem.stiffness_reuse_ratio": "ratio",
    "sparse.cg_iterations": "count",
    "sparse.cg_failures": "count",
    "sparse.nnz": "count",
    "sparse.cg_bytes_computed": "B",
    "trace.overhead_s": "s",
}

# Doubles streamed per CG iteration besides the CSR arrays, counted from the
# loop in biharm.sparse.cg_solve: the matvec reads p and writes A p (2); the
# two dot products read 4; the x and r updates read 2 and write 1 each, plus
# a temporary of 2 (10); the residual norm reads 1; the Jacobi step reads 2
# and writes 1; the direction update reads 3 and writes 2 (5). Total 25.
CG_VECTOR_DOUBLES_PER_ITER = 25


def _cg_info(args, result, exc):
    a = args[0]
    iterations = result.iterations if exc is None else getattr(exc, "iterations", 0)
    return {
        "iterations": iterations,
        "failed": exc is not None,
        "n": a.shape[0],
        "nnz": a.nnz,
        "index_bytes": a.column_indices.itemsize,
    }


def _validate_info(args, result, exc):
    return {"triangles": args[0].num_triangles}


def _resolve(module, attr):
    owner = module
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.split(".")[-1]


class Tracer:
    """Context manager that wraps every target and records its calls as spans.

    ``spans`` holds ``[name, start, end, parent_index, info]`` lists in call
    order; ``parent_index`` is -1 for a root.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # id -> weak reference of every space seen by assemble_stiffness; a
        # dead reference means the id now belongs to a new space.
        self._spaces: dict[int, weakref.ref] = {}
        # Extra facts recorded on a span, from the call's arguments and outcome.
        self._info = {
            "sparse.cg_solve": _cg_info,
            "fem.assemble_stiffness": self._stiffness_info,
            "mesh.Mesh.validate": _validate_info,
        }

    def _stiffness_info(self, args, result, exc):
        space = args[0]
        seen = self._spaces.get(id(space))
        new = seen is None or seen() is not space
        if new:
            self._spaces[id(space)] = weakref.ref(space)
        return {"new_space": new}

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        """Record a span around the body, such as one benchmark operation."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn):
        info = self._info.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                self._close(index)
                if info is not None:
                    self.spans[index][4] = info(args, result, exc)

        return traced

    def __enter__(self):
        modules = [
            m for key, m in list(sys.modules.items()) if key == "biharm" or key.startswith("biharm.")
        ]
        for module_name, attr, _ in TARGETS:
            owner, leaf = _resolve(sys.modules[f"biharm.{module_name}"], attr)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            if isinstance(owner, type):
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def __exit__(self, *exc_info):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
        return False


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics of the spans of ``n_ops`` traced operations.

    Returns every name in ``PER_LAYER_UNITS`` except ``trace.overhead_s``,
    which needs an untraced run to compare with.
    """
    seconds = dict.fromkeys(TIME_LAYERS, 0.0)
    calls = dict.fromkeys(CALL_LAYERS, 0)
    triangles = iterations = failures = nnz = cg_bytes = assemblies = distinct_spaces = 0
    for (name, _, _, _, info), own in zip(spans, self_times(spans)):
        layer = LAYER_OF.get(name)
        if layer is None:
            continue
        seconds[layer] += own
        if layer in calls:
            calls[layer] += 1
        if name == "mesh.Mesh.validate":
            triangles = max(triangles, info["triangles"])
        elif name == "fem.assemble_stiffness":
            assemblies += 1
            distinct_spaces += info["new_space"]
        elif name == "sparse.cg_solve":
            iterations += info["iterations"]
            failures += info["failed"]
            nnz = max(nnz, info["nnz"])
            csr_bytes = info["nnz"] * (8 + info["index_bytes"]) + (info["n"] + 1) * info["index_bytes"]
            cg_bytes += info["iterations"] * (csr_bytes + CG_VECTOR_DOUBLES_PER_ITER * 8 * info["n"])
    metrics = {f"{layer}_s": total / n_ops for layer, total in seconds.items()}
    metrics.update({f"{layer}_calls": count / n_ops for layer, count in calls.items()})
    metrics.update(
        {
            "mesh.triangles": triangles,
            "fem.stiffness_reuse_ratio": distinct_spaces / assemblies if assemblies else 0.0,
            "sparse.cg_iterations": iterations / n_ops,
            "sparse.cg_failures": failures / n_ops,
            "sparse.nnz": nnz,
            "sparse.cg_bytes_computed": cg_bytes / n_ops,
        }
    )
    return metrics


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over rounds; counts of the first round are kept as
    they are, so that they repeat exactly between runs with the same seed."""
    first = rounds[0]
    return {
        name: statistics.median(r[name] for r in rounds) if PER_LAYER_UNITS[name] == "s" else first[name]
        for name in first
    }

"""End-to-end acceptance checks.

Each test covers one acceptance criterion and emits a single
"acceptance k (<label>): PASS|FAIL" line on the real stdout, bypassing
pytest capture, so a plain ``pytest -v`` run shows all nine verdicts.
"""

import math
import time
import timeit
from contextlib import contextmanager

import numpy as np
import pytest

from biharm.biharmonic import (
    NeumannProblem,
    compatibility_residual,
    flux_mismatch,
    solve_neumann,
    weak_form_residual,
)
from biharm.fem import (
    assemble_mass,
    assemble_stiffness,
    build_space,
    triangle_quadrature,
)
from biharm.manufactured import case_bubble, case_sine, l2_error
from biharm.mesh import read_mesh, refine_uniform, unit_disk_mesh, unit_square_mesh, write_mesh
from biharm.poisson import overdetermined_check, solve_dirichlet
from biharm.polynomials import (
    ComplexPolynomial,
    GaussianRational,
    Polynomial2D,
    complementing_check,
    harmonic_basis,
    laplace_complementing_check,
)
from biharm.sparse import SparseMatrix, cg_solve


@contextmanager
def criterion(capfd, number: int, label: str):
    try:
        yield
    except Exception:
        with capfd.disabled():
            print(f"acceptance {number} ({label}): FAIL")
        raise
    with capfd.disabled():
        print(f"acceptance {number} ({label}): PASS")


def clamped_bubble() -> Polynomial2D:
    x, y = Polynomial2D.x(), Polynomial2D.y()
    one = Polynomial2D.constant(1)
    return (x * (one - x)) ** 2 * (y * (one - y)) ** 2


def sine_problem():
    case = case_sine()
    return case, NeumannProblem(case.f, case.g, case.h)


def test_acceptance_1_boundary_symbol_independence(capfd):
    with criterion(capfd, 1, "exact complementing condition"):
        result = complementing_check()
        i = GaussianRational.i()
        # exact values, zero tolerance
        assert result.remainder1 == ComplexPolynomial((GaussianRational.of(2), 2 * i))
        assert result.remainder2 == ComplexPolynomial((2 * i, GaussianRational.of(-2)))
        assert result.linearly_dependent is True
        assert result.factor == i
        control = laplace_complementing_check()
        assert control == ComplexPolynomial((i,))
        assert control.degree == 0  # nonzero constant remainder
        # exact rational arithmetic keeps this essentially instant
        best = min(timeit.repeat(complementing_check, number=100, repeat=5)) / 100
        assert best < 1e-3


def test_acceptance_2_poisson_convergence(capfd):
    with criterion(capfd, 2, "second-order Dirichlet convergence"):
        start = time.perf_counter()
        u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        q = lambda x, y: -2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        errors = []
        for n in (8, 16, 32, 64):
            space = build_space(unit_square_mesh(n), 1)
            w = solve_dirichlet(space, q, 0.0, rel_tol=1e-12)
            errors.append(l2_error(w, u))
        assert math.log2(errors[-2] / errors[-1]) >= 1.9
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert time.perf_counter() - start < 30.0


def test_acceptance_3_cascade_convergence(capfd):
    with criterion(capfd, 3, "cascade convergence in both fields"):
        start = time.perf_counter()
        case, prob = sine_problem()
        e_sigma, e_s = [], []
        for n in (8, 16, 32, 64):
            space = build_space(unit_square_mesh(n), 1)
            sol = solve_neumann(space, prob, rel_tol=1e-11)
            e_sigma.append(l2_error(sol.sigma_h, case.sigma_exact))
            e_s.append(l2_error(sol.s_h, case.u_exact))
        for errs in (e_sigma, e_s):
            for coarse, fine in zip(errs, errs[1:]):
                assert math.log2(coarse / fine) >= 1.8

        bubble = case_bubble()
        bprob = NeumannProblem(bubble.f, bubble.g, bubble.h)
        b_errors = []
        for n in (8, 16, 32):
            space = build_space(unit_square_mesh(n), 1)
            sol = solve_neumann(space, bprob, rel_tol=1e-11)
            b_errors.append(l2_error(sol.s_h, bubble.u_exact))
        assert b_errors[0] > b_errors[1] > b_errors[2]
        assert time.perf_counter() - start < 60.0


def test_acceptance_4_flux_datum_isolation(capfd):
    with criterion(capfd, 4, "solution independent of the flux datum"):
        case, prob = sine_problem()
        shifted = NeumannProblem(case.f, case.g, lambda x, y: case.h(x, y) + 1.0)
        space = build_space(unit_square_mesh(16), 1)
        a = solve_neumann(space, prob)
        b = solve_neumann(space, shifted)
        # bit-for-bit identical: h reaches diagnostics only
        assert np.array_equal(a.sigma_h.coeffs, b.sigma_h.coeffs)
        assert np.array_equal(a.s_h.coeffs, b.s_h.coeffs)
        assert a.diagnostics.flux_mismatch != b.diagnostics.flux_mismatch


def test_acceptance_5_compatibility_residuals(capfd):
    with criterion(capfd, 5, "compatibility residuals"):
        _, prob = sine_problem()
        low = harmonic_basis(1)  # constant, x, y
        assert len(low) == 3
        space32 = build_space(unit_square_mesh(32), 1)
        assert np.abs(compatibility_residual(space32, prob, low)).max() <= 1e-4

        maxima = []
        for n in (4, 8, 16):
            space = build_space(unit_square_mesh(n), 1)
            maxima.append(np.abs(compatibility_residual(space, prob, low)).max())
        assert maxima[0] > maxima[1] > maxima[2]

        case = case_sine()
        perturbed = NeumannProblem(case.f, case.g, lambda x, y: case.h(x, y) + 1.0)
        space16 = build_space(unit_square_mesh(16), 1)
        shift = (
            compatibility_residual(space16, perturbed, low)[0]
            - compatibility_residual(space16, prob, low)[0]
        )
        # adding 1 to h lowers r(1) by exactly the boundary length 4
        assert abs(shift + 4.0) <= 1e-2


def test_acceptance_6_flux_mismatch_diagnostic(capfd):
    with criterion(capfd, 6, "flux mismatch separates data"):
        case, prob = sine_problem()
        good, bad = [], []
        for n in (8, 16, 32):
            space = build_space(unit_square_mesh(n), 1)
            sol = solve_neumann(space, prob)
            good.append(sol.diagnostics.flux_mismatch)
            bad.append(flux_mismatch(sol, lambda x, y: case.h(x, y) + 1.0))
        assert good[0] > good[1] > good[2]
        assert all(value >= 1.0 for value in bad)


def test_acceptance_7_overdetermined_diagnostics(capfd):
    with criterion(capfd, 7, "overdetermined solvability diagnostics"):
        compatible = clamped_bubble().laplacian()
        flux = []
        for n in (8, 16, 32):
            space = build_space(unit_square_mesh(n), 1)
            res = overdetermined_check(space, compatible)
            flux.append(res.flux.l2_mismatch())
        assert flux[0] > flux[1] > flux[2]
        assert flux[2] < 1e-4

        for n in (8, 16, 32):
            space = build_space(unit_square_mesh(n), 1)
            res = overdetermined_check(space, 1.0, rel_tol=1e-12)
            assert abs(res.flux.total() - 1.0) <= 1e-8
            assert res.flux.l2_mismatch() > 0.4


def test_acceptance_8_weak_form_residual(capfd):
    with criterion(capfd, 8, "weak form residual decreases"):
        _, prob = sine_problem()
        r = clamped_bubble()
        values = []
        for n in (8, 16, 32):
            space = build_space(unit_square_mesh(n), 1)
            sol = solve_neumann(space, prob)
            values.append(weak_form_residual(sol, r))
        assert values[0] > values[1] > values[2]


def test_acceptance_9_infrastructure(capfd, tmp_path):
    with criterion(capfd, 9, "meshing, quadrature, assembly and solver"):
        # mesh invariants survive generation, refinement, and file round trips
        for mesh in (unit_square_mesh(5), unit_disk_mesh(3)):
            refined = refine_uniform(mesh)
            assert abs(refined.area() - mesh.area()) < 1e-12
            path = tmp_path / "m.mesh"
            write_mesh(refined, path)
            again = read_mesh(path)
            assert np.array_equal(again.vertices, refined.vertices)
            assert np.array_equal(again.triangles, refined.triangles)

        # quadrature exactness over its declared degree range
        from math import factorial

        for order in range(1, 7):
            rule = triangle_quadrature(order)
            for i in range(order + 1):
                for j in range(order + 1 - i):
                    exact = (
                        factorial(i) * factorial(j) / factorial(i + j + 2)
                    )
                    got = float(
                        np.sum(rule.weights * rule.points[:, 0] ** i * rule.points[:, 1] ** j)
                    )
                    assert abs(got - exact) <= 1e-13

        # assembly identities
        for degree in (1, 2):
            space = build_space(unit_square_mesh(6), degree)
            a = assemble_stiffness(space)
            m = assemble_mass(space)
            ones = np.ones(space.dof_count)
            assert np.max(np.abs(a @ ones)) <= 1e-12
            assert abs(ones @ (m @ ones) - 1.0) <= 1e-12

        # CG against a dense factorization on a small SPD system
        space = build_space(unit_square_mesh(8), 1)
        assert space.dof_count <= 200
        reg = SparseMatrix(
            (assemble_stiffness(space).csr + assemble_mass(space).csr).tocsr()
        )
        rng = np.random.default_rng(1)
        b = rng.standard_normal(space.dof_count)
        x_cg = cg_solve(reg, b, rel_tol=1e-12).x
        x_dense = np.linalg.solve(reg.toarray(), b)
        assert np.linalg.norm(x_cg - x_dense) <= 1e-9 * np.linalg.norm(x_dense)

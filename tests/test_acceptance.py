"""End-to-end acceptance checks.

Each test covers one acceptance criterion and emits a single
"acceptance k (<label>): PASS|FAIL" line on the real stdout, bypassing
pytest capture, so a plain ``pytest -v`` run shows all ten verdicts.
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
    GaussianRational,
    Polynomial2D,
    SymbolRemainder,
    complementing_check,
    harmonic_basis,
    laplace_complementing_check,
)
from biharm.sparse import cg_solve


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
        assert result.remainder1 == SymbolRemainder(GaussianRational.of(2), 2 * i)
        assert result.remainder2 == SymbolRemainder(2 * i, GaussianRational.of(-2))
        assert result.linearly_dependent is True
        assert result.factor == i
        control = laplace_complementing_check()
        assert control == SymbolRemainder(i)  # nonzero constant remainder
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
            bad.append(sol.flux.l2_mismatch(lambda x, y: case.h(x, y) + 1.0))
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
        reg = assemble_stiffness(space) + assemble_mass(space)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(space.dof_count)
        x_cg = cg_solve(reg, b, rel_tol=1e-12).x
        x_dense = np.linalg.solve(reg.toarray(), b)
        assert np.linalg.norm(x_cg - x_dense) <= 1e-9 * np.linalg.norm(x_dense)


def sine_galerkin(f, g, modes: int, points: int = 700):
    """The paper's variational solution on the unit square, independent of the
    cascade: u in H^2 and H^1_0 with (lap u, lap v) = (f, v) + <g, dv/dn> for all
    such v (the h term drops, v = 0 on the boundary). The modes
    phi_mn = sin(m pi x) sin(n pi y) diagonalise lap, so the Galerkin solution
    on m, n <= ``modes`` is u_K = sum a_mn phi_mn, a_mn = 4 l(phi_mn) / lam_mn^2
    with lam_mn = pi^2 (m^2 + n^2), and lap u_K has the coefficients
    -lam_mn a_mn. l is integrated by a tensor Gauss rule of ``points`` per side.

    Returns u_K and lap u_K as callables. lap u has trace g, so its sine series
    converges slowly in L2; the series returned sums g plus the sine series of
    (lap u - g), which is the same function and converges fast."""
    t, w = np.polynomial.legendre.leggauss(points)
    t, w = (t + 1.0) / 2.0, w / 2.0
    k = np.arange(1, modes + 1)
    sines = np.sin(np.pi * np.outer(k, t)) * w  # weighted: rows integrate against phi
    load = sines @ f(t[:, None], t[None, :]) @ sines.T
    # dphi/dn on the sides x = 0, x = 1 (then y = 0, y = 1): -m pi, m pi (-1)^m
    d0, d1 = np.pi * k, np.pi * k * (-1.0) ** k
    load += np.outer(d1, sines @ g(1.0, t)) - np.outer(d0, sines @ g(0.0, t))
    load += np.outer(sines @ g(t, 1.0), d1) - np.outer(sines @ g(t, 0.0), d0)
    lam = np.pi**2 * (k[:, None] ** 2 + k[None, :] ** 2)
    a = 4.0 * load / lam**2
    lap_minus_g = -lam * a - 4.0 * sines @ g(t[:, None], t[None, :]) @ sines.T

    def series(coeffs, x, y):
        # on the few distinct coordinates of a uniform mesh, then looked up
        ux, ix = np.unique(x, return_inverse=True)
        uy, iy = np.unique(y, return_inverse=True)
        table = np.sin(np.pi * np.outer(ux, k)) @ coeffs @ np.sin(np.pi * np.outer(k, uy))
        return table[ix.reshape(np.shape(x)), iy.reshape(np.shape(y))]

    return (lambda x, y: series(a, x, y)), (lambda x, y: series(lap_minus_g, x, y) + g(x, y))


def test_acceptance_10_cascade_matches_variational_solution(capfd):
    with criterion(capfd, 10, "cascade equals the variational formulation"):
        start = time.perf_counter()
        f = lambda x, y: np.exp(x) * np.cos(2.0 * y) + 1.0
        g = lambda x, y: 1.0 + x * y  # a nonzero trace, so the boundary term counts
        # K = 300 puts the truncation error 100x below the nodal error at P1
        # n = 64 and 40x below the L2 error of P2 n = 32; K = 80 stalls at n = 64
        u_k, lap_u_k = sine_galerkin(f, g, modes=300)
        problem = NeumannProblem(f, g, 0.0)
        # P1 measured: nodal 1.92e-4, 4.99e-5, 1.28e-5; L2 1.34e-3, 3.37e-4, 8.44e-5.
        # P2 measured: nodal 1.34e-4, 3.35e-5, 8.44e-6 (rate 2: u and lap u have
        # r^2 log r corner terms, since f and g miss the corner compatibility);
        # L2 1.30e-4, 1.79e-5, 2.42e-6.
        for degree, sizes, nodal_rate, l2_rate, finest in (
            (1, (16, 32, 64), 1.9, 1.95, (1.4e-5, 9e-5)),
            (2, (8, 16, 32), 1.95, 2.8, (9e-6, 2.6e-6)),
        ):
            nodal, l2 = [], []
            for n in sizes:
                space = build_space(unit_square_mesh(n), degree)
                sol = solve_neumann(space, problem, rel_tol=1e-13)
                x, y = space.dof_coordinates.T
                nodal.append(np.abs(sol.s_h.coeffs - u_k(x, y)).max())
                l2.append(l2_error(sol.sigma_h, lap_u_k))
            for errors, rate in ((nodal, nodal_rate), (l2, l2_rate)):
                rates = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
                assert min(rates) >= rate
            assert nodal[-1] <= finest[0] and l2[-1] <= finest[1]
        assert time.perf_counter() - start < 2.0

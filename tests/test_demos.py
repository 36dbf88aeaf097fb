"""Every demo script runs to completion and prints exactly the text recorded
here. None of them prints a timing, so the text is fixed by the arithmetic."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import biharm

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

STDOUT = {
    "cascade_solve": (
        "case sine\n"
        "  n=  8  l2_sigma=4.1716e-01  l2_s=3.8191e-02  compat_max=2.90e-07  flux_mismatch=7.877\n"
        "  n= 16  l2_sigma=1.0615e-01  l2_s=9.8931e-03  compat_max=4.50e-09  flux_mismatch=2.734\n"
        "  n= 32  l2_sigma=2.6657e-02  l2_s=2.4958e-03  compat_max=7.02e-11  flux_mismatch=0.956\n"
        "case bubble\n"
        "  n=  8  l2_sigma=6.1370e-03  l2_s=3.0190e-04  compat_max=4.44e-16  flux_mismatch=0.086\n"
        "  n= 16  l2_sigma=1.5852e-03  l2_s=8.0168e-05  compat_max=1.17e-15  flux_mismatch=0.028\n"
        "  n= 32  l2_sigma=3.9971e-04  l2_s=2.0359e-05  compat_max=8.33e-16  flux_mismatch=0.010\n"
        "wrote cascade_sine.vtk\n"
    ),
    "compatibility_and_flux": (
        "compatibility residuals, consistent data (n=32):\n"
        "  r[1    ] = -7.023e-11\n"
        "  r[Re^1 ] = -3.510e-11\n"
        "  r[Im^1 ] = -3.510e-11\n"
        "  r[Re^2 ] =  7.105e-15\n"
        "  r[Im^2 ] = -3.506e-11\n"
        "  r[Re^3 ] =  1.754e-11\n"
        "  r[Im^3 ] = -1.749e-11\n"
        "after h -> h + 1: r[1] = -4.000000   (minus the perimeter)\n"
        "flux mismatch under refinement:\n"
        "  n=  8  consistent=7.8771  perturbed=8.1270  total=157.9137\n"
        "  n= 16  consistent=2.7341  perturbed=3.3875  total=157.9137\n"
        "  n= 32  consistent=0.9560  perturbed=2.2167  total=157.9137\n"
        "the perturbed column is bounded below by |1|_L2(boundary) = 2;\n"
        "the total outflow is the integral of f, 16 pi^2 = 157.9137\n"
    ),
    "complementing": (
        "B1 = 1 + t^2,  B2 = t + t^3,  modulus (t - i)^2\n"
        "remainder of B1: 2 + 2i*t\n"
        "remainder of B2: 2i - 2*t\n"
        "linearly dependent: True\n"
        "dependence factor: i\n"
        "control, Laplace flux symbol: i\n"
    ),
    "mesh_toolkit": (
        "unit square, n=8\n"
        "  vertices = 81\n"
        "  triangles = 128\n"
        "  boundary edges = 32\n"
        "  area = 1.0\n"
        "polygonal unit disk, 4 rings\n"
        "  vertices = 61\n"
        "  area = 3.105828541230249  (pi = 3.141592653589793 )\n"
        "after refinement: 384 triangles, area = 3.105828541230249\n"
        "file round trip bit-identical: True\n"
    ),
    "overdetermined": (
        "second-order check, p = laplacian of the clamped bubble (compatible):\n"
        "  n=  8  flux_l2=4.4124e-04  total_flux=-6.66e-09\n"
        "  n= 16  flux_l2=1.0226e-04  total_flux=-1.04e-10\n"
        "  n= 32  flux_l2=2.4464e-05  total_flux=-1.63e-12\n"
        "second-order check, p = 1 (incompatible):\n"
        "  n=  8  flux_l2=5.4538e-01  total_flux=1.000000000000\n"
        "  n= 16  flux_l2=5.3427e-01  total_flux=1.000000000000\n"
        "  n= 32  flux_l2=5.3126e-01  total_flux=1.000000000000\n"
        "fourth-order cascade, p = laplacian of the bubble:\n"
        "  n=  8  flux_l2=4.4124e-04  total_flux=-6.66e-09\n"
        "  n= 16  flux_l2=1.0226e-04  total_flux=-1.04e-10\n"
    ),
    "poisson_convergence": (
        "degree 1\n"
        "  n=  8  dofs=   81  l2=2.1134e-02\n"
        "  n= 16  dofs=  289  l2=5.3775e-03  rate 1.97\n"
        "  n= 32  dofs= 1089  l2=1.3504e-03  rate 1.99\n"
        "  n= 64  dofs= 4225  l2=3.3799e-04  rate 2.00\n"
        "degree 2\n"
        "  n=  8  dofs=  289  l2=5.4812e-04\n"
        "  n= 16  dofs= 1089  l2=6.8741e-05  rate 3.00\n"
        "  n= 32  dofs= 4225  l2=8.6006e-06  rate 3.00\n"
        "  n= 64  dofs=16641  l2=1.0753e-06  rate 3.00\n"
    ),
    "weak_form_residual": (
        "n=  8  weak form residual = 7.4255e-01\n"
        "n= 16  weak form residual = 1.8935e-01\n"
        "n= 32  weak form residual = 4.7577e-02\n"
        "n= 64  weak form residual = 1.1909e-02\n"
    ),
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run where the demo may write its output files, importing this checkout's biharm
    package_root = str(Path(biharm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == STDOUT[demo.stem]
    assert done.stderr == ""  # no numpy warning either, as the test suite asks of the library

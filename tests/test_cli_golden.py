"""Golden stdout of the CLI: each command prints exactly the text recorded here.

The text was recorded before the moment tables, the P1 gradient map and the
load scatter were rewritten to work in place. Numbers print to 13 significant
digits; the oracle tests of those kernels pin their results bit for bit.
The complementing, solve and mesh entries were recorded before the symbol
remainders moved from an any-degree polynomial class to c0 + c1*t.
The compat_max fields of the converge and sine-solve entries were recorded
again when the quadrature sums became a per-triangle rule sum followed by a
pairwise sum over triangles; that order moves only the roundoff digits of
the residuals, and every other field kept its bytes.
"""

import pytest

from biharm.cli import run

GOLDEN = [
    (
        ["converge", "--case", "sine", "--levels", "3", "--n0", "8"],
        (
            "level,h,dofs,l2_sigma,l2_s,rate_sigma,rate_s,flux_mismatch,compat_max\n"
            "0,1.250000000000e-01,81,4.171589170469e-01,3.819080247323e-02,,,7.877095522702e+00,2.898450759403e-07\n"
            "1,6.250000000000e-02,289,1.061472129794e-01,9.893123868494e-03,1.974530592217e+00,1.948727188782e+00,2.734071892184e+00,4.498645012063e-09\n"
            "2,3.125000000000e-02,1089,2.665659906886e-02,2.495765296851e-03,1.993501858279e+00,1.986943871858e+00,9.560154061226e-01,7.023004400253e-11\n"
        ),
    ),
    (
        ["converge", "--case", "bubble", "--degree", "2", "--levels", "2", "--n0", "4"],
        (
            "level,h,dofs,l2_sigma,l2_s,rate_sigma,rate_s,flux_mismatch,compat_max\n"
            "0,2.500000000000e-01,81,1.810288221452e-03,5.420999703959e-05,,,1.464619134706e-01,1.998401444325e-15\n"
            "1,1.250000000000e-01,289,2.366897156890e-04,6.304650676191e-06,2.935150484851e+00,3.104070586126e+00,5.582687635850e-02,4.440892098501e-16\n"
        ),
    ),
    (
        ["compat", "--f", "2", "--g", "sin(3*x*y)", "--h", "exp(y)-x", "--n", "12", "--kmax", "4"],
        (
            "r[1] = -3.154845485377e+00\n"
            "r[Re (x+iy)^1] = -2.474252437410e-01\n"
            "r[Im (x+iy)^1] = -2.054950996175e+00\n"
            "r[Re (x+iy)^2] = 1.863803047411e+00\n"
            "r[Im (x+iy)^2] = -6.689051626171e-01\n"
            "r[Re (x+iy)^3] = 1.758491493846e+00\n"
            "r[Im (x+iy)^3] = 8.527971346806e-01\n"
            "r[Re (x+iy)^4] = 1.808792777804e+00\n"
            "r[Im (x+iy)^4] = 1.438693867255e+00\n"
            "compat_max=3.154845485377e+00\n"
        ),
    ),
    (
        ["flux", "--case", "sine", "--n", "8"],
        (
            "flux_mismatch=7.877095522702e+00\n"
            "total_flux=1.579136724155e+02\n"
        ),
    ),
    (
        ["overdet", "--p", "x*(1-x)", "--n", "4", "--levels", "2"],
        (
            "n=4 flux_l2=1.026331863509e-01 total_flux=1.666666666667e-01\n"
            "n=8 flux_l2=9.512420170310e-02 total_flux=1.666666666667e-01\n"
        ),
    ),
    (
        ["complementing"],
        (
            "symbols: 1 + t^2, t + t^3 modulo (t - i)^2\n"
            "remainder 1: 2 + 2i*t\n"
            "remainder 2: 2i - 2*t\n"
            "dependent: true, factor: i\n"
            "control (Laplace flux symbol t mod t - i): remainder i\n"
        ),
    ),
    (
        ["solve", "--case", "sine", "--n", "8"],
        (
            "dofs=81 cg_iterations=7+13\n"
            "compat_max=2.898450759403e-07\n"
            "flux_mismatch=7.877095522702e+00\n"
            "l2_sigma=4.171589170469e-01\n"
            "l2_s=3.819080247323e-02\n"
        ),
    ),
    (
        ["solve", "--f", "exp(x)*cos(2*y)", "--g", "x*y", "--h", "1+x", "--domain", "disk"]
        + ["--n", "3", "--degree", "2", "--kmax", "2"],
        (
            "dofs=127 cg_iterations=31+32\n"
            "compat_max=4.173890714647e+00\n"
            "flux_mismatch=2.823167989373e+00\n"
        ),
    ),
    (
        ["mesh", "--n", "4"],
        "domain=unit_square vertices=25 triangles=32 boundary_edges=16 area=1.000000000000e+00\n",
    ),
    (
        ["mesh", "--domain", "disk", "--n", "3", "--refine", "1"],
        (
            "domain=unit_disk_polygon vertices=127 triangles=216 boundary_edges=36"
            " area=3.078181289931e+00\n"
        ),
    ),
]


@pytest.mark.parametrize(
    "argv, expected", GOLDEN, ids=[f"{argv[0]}{k}" for k, (argv, _) in enumerate(GOLDEN)]
)
def test_stdout_is_byte_identical_to_the_recorded_text(argv, expected, capsys):
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (expected, "")

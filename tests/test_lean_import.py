"""No biharm process loads scipy.special: the triangle rules' Gauss points are
tabulated, so only scipy.sparse is imported at run time."""

import os
import subprocess
import sys
from pathlib import Path

import biharm

# The steps run in order in one fresh interpreter; after each, the child
# prints the step and whether scipy.special has been imported by then.
CHILD = """
import contextlib, io, sys
import numpy as np

def loaded(step):
    print(f"{step}: {'scipy.special' in sys.modules}")

import biharm
loaded("import biharm")
from biharm import cli, manufactured
from biharm.fem import build_space, interpolate
from biharm.mesh import unit_square_mesh

for argv in (
    ["solve", "--f", "1", "--g", "0", "--h", "0", "--n", "2"],
    ["converge", "--case", "sine", "--levels", "1", "--n0", "2"],
    ["converge", "--case", "bubble", "--levels", "1", "--n0", "2", "--degree", "2"],
    ["compat", "--case", "sine", "--n", "2"],
    ["flux", "--case", "sine", "--n", "2"],
    ["overdet", "--p", "1", "--n", "2", "--levels", "1"],
    ["mesh", "--n", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    assert code == 0, argv
    loaded(" ".join(argv))

field = interpolate(build_space(unit_square_mesh(2), 1), lambda x, y: x * y)
manufactured.h1_error(field, 0.0, lambda x, y: (np.zeros_like(x), np.zeros_like(y)))
loaded("h1_error")
"""


def test_no_step_of_a_biharm_process_imports_scipy_special():
    src = Path(biharm.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    steps = dict(line.rsplit(": ", 1) for line in done.stdout.splitlines())
    assert len(steps) == 9
    assert [step for step, loaded in steps.items() if loaded != "False"] == []

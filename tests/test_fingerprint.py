"""tools/fingerprint.py: the committed bit-for-bit check finds no difference against a
copy of the library and exactly the sine results against a copy with one constant
of the sine case moved by one ulp."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "fingerprint.py"
SINE_F = "return 4.0 * pi**4 * np.sin(pi * x) * np.sin(pi * y)"


def against(tree: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, str(SCRIPT), "--against", str(tree)]
    return subprocess.run(command, capture_output=True, text=True, timeout=60)


def copy_of_src(tree: Path) -> Path:
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tree / "src" / "biharm"


def test_fingerprint_finds_no_difference_against_a_copy_and_only_sine_one_ulp_off(tmp_path):
    copy_of_src(tmp_path / "same")
    manufactured = copy_of_src(tmp_path / "moved") / "manufactured.py"
    text = manufactured.read_text(encoding="utf-8")
    assert text.count(SINE_F) == 1 and 4.000000000000001 == 4.0 + 2.0**-50  # one ulp above 4
    manufactured.write_text(text.replace(SINE_F, SINE_F.replace("4.0", "4.000000000000001")))

    same = against(tmp_path / "same")
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == [f"0 of 176 results differ against {tmp_path / 'same'}"]

    moved = against(tmp_path / "moved")
    assert moved.returncode == 1, moved.stderr
    *lines, summary = moved.stdout.splitlines()
    differ = {line.removeprefix("differs: ") for line in lines}
    # every sine result that reads f's bits, at both degrees; the CG counts may stay
    sine = {
        f"square/P{degree}/sine/{name}"
        for degree in (1, 2)
        for name in (
            "sigma_h",
            "s_h",
            "residuals_kmax3",
            "residuals_kmax7",
            "flux_functional",
            "flux_projected",
            "flux_mismatch",
            "l2_error_sigma",
            "l2_error_s",
            "weak_form_residual",
        )
    }
    assert sine <= differ <= sine | {"square/P1/sine/cg_iterations", "square/P2/sine/cg_iterations"}
    assert summary == f"{len(differ)} of 176 results differ against {tmp_path / 'moved'}"

"""Command-line outputs compared byte for byte with the files in tests/golden/.

A change that moves a digit of one of them on purpose regenerates them all
with

    PYTHONPATH=src python tests/test_golden.py

and names every digit that moved.  The five-level study's CSV is checked
in tests/test_acceptance.py, from the study it already runs, and the
stability demo's output in tests/test_demos.py, where the demo already runs.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

from stokes_asgs.cli import main

GOLDEN = Path(__file__).parent / "golden"

# golden file -> the command line that writes it
CLI_GOLDENS = {
    "solve_nx20_dt0.1.csv": ["solve", "--nx", "20", "--dt", "0.1"],
    "solve_nx16_dt0.05_cn.csv": ["solve", "--nx", "16", "--dt", "0.05", "--theta", "0"],
    "study_nx10_dt0.1_levels3.csv": ["study", "--nx", "10", "--dt", "0.1", "--levels", "3"],
    "time_study_nx32_dt0.1_levels3_cn.csv": ["study", "--time-study", "--nx", "32",
                                             "--dt", "0.1", "--levels", "3", "--theta", "0"],
    "time_study_nx64_dt0.2_levels4_cn.csv": ["study", "--time-study", "--nx", "64",
                                             "--dt", "0.2", "--levels", "4", "--theta", "0"],
}
# the acceptance suite's five-level study, at the command line's defaults
ACCEPTANCE_STUDY = "study_levels5.csv"
STABILITY_DEMO = "run_stability_diagnostics.txt"


@pytest.mark.parametrize("name", CLI_GOLDENS)
def test_cli_output_is_golden(tmp_path, name):
    out = tmp_path / name
    assert main(CLI_GOLDENS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def regenerate():
    """Write every golden from the code as it stands."""
    argvs = {**CLI_GOLDENS, ACCEPTANCE_STUDY: ["study", "--levels", "5"]}
    for name, argv in argvs.items():
        assert main(argv + ["--out", str(GOLDEN / name)]) == 0
    demo = GOLDEN.parent.parent / "demos" / "run_stability_diagnostics.py"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(str(demo), run_name="__main__")
    (GOLDEN / STABILITY_DEMO).write_bytes(out.getvalue().encode())


if __name__ == "__main__":
    regenerate()

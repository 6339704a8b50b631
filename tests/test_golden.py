"""Golden outputs: the CLI's stdout for seeded runs, shot counts and
branch enumerations, compared byte for byte with committed files.

The README promises that the same inputs and seed produce identical
bytes; these cases pin that promise across changes to the simulator.
Regenerate the files only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import pathlib

import pytest

from qcasm.cli import main

from conftest import PROGRAMS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

QFT = str(PROGRAMS / "qft.qcasm")
GROVER = str(PROGRAMS / "grover.qcasm")
TELEPORT = str(PROGRAMS / "teleport.qcasm")
CNOT = str(PROGRAMS / "cnot_mb.qcasm")
CNOT_LIBERAL = str(PROGRAMS / "cnot_mb_liberal.qcasm")
PHASE_EST = str(PROGRAMS / "phase_est.qcasm")
TELE_REG = str(PROGRAMS / "teleport_demo.json")
PE_REG = str(PROGRAMS / "phase_est_demo.json")

GROVER5 = ("--param", "n=5", "--param", "N=32", "--param", "m=19")

CASES = {
    "run_qft8_seed3": ("run", QFT, "--param", "n=8", "--seed", "3"),
    "run_grover5_seed11": ("run", GROVER, *GROVER5, "--seed", "11"),
    "shots_grover5": ("run", GROVER, *GROVER5, "--shots", "300", "--seed", "5"),
    "shots_teleport": ("run", TELEPORT, "--registry", TELE_REG,
                       "--shots", "300", "--seed", "2"),
    "shots_cnot_mb": ("run", CNOT, "--param", "c=1", "--param", "t=0",
                      "--shots", "300", "--seed", "9"),
    "enumerate_teleport": ("enumerate", TELEPORT, "--registry", TELE_REG),
    "enumerate_cnot_mb": ("enumerate", CNOT, "--param", "c=1", "--param", "t=1"),
    "enumerate_cnot_mb_liberal": ("enumerate", CNOT_LIBERAL,
                                  "--param", "c=1", "--param", "t=0"),
    "enumerate_phase_est": ("enumerate", PHASE_EST, "--registry", PE_REG),
}


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert render(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.out").write_text(render(argv), encoding="utf-8")

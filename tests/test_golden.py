"""Golden outputs: the CLI's stdout for seeded runs, shot counts and
branch enumerations, compared byte for byte with committed files.

The README promises that the same inputs and seed produce identical
bytes; these cases pin that promise across changes to the simulator.
Regenerate the files only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import pathlib

import pytest

from qcasm.cli import main

from conftest import FIXTURES, PROGRAMS

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
    "run_teleport_seed4": ("run", TELEPORT, "--registry", TELE_REG, "--seed", "4"),
    "run_cnot_mb_seed6": ("run", CNOT, "--param", "c=1", "--param", "t=1",
                          "--seed", "6"),
    "run_cnot_mb_liberal_seed8": ("run", CNOT_LIBERAL, "--param", "c=0",
                                  "--param", "t=1", "--seed", "8"),
    "run_phase_est_seed1": ("run", PHASE_EST, "--registry", PE_REG, "--seed", "1"),
    "enumerate_grover3": ("enumerate", GROVER, "--param", "n=3", "--param", "N=8",
                          "--param", "m=5"),
    "lower_teleport": ("lower", TELEPORT, "--registry", TELE_REG, "--format", "json"),
    "schedules_teleport": ("schedules", TELEPORT, "--registry", TELE_REG,
                           "--format", "json"),
    "shots_cnot_mb_liberal": ("run", CNOT_LIBERAL, "--param", "c=1", "--param", "t=0",
                              "--shots", "300", "--seed", "12"),
    "shots_phase_est": ("run", PHASE_EST, "--registry", PE_REG,
                        "--shots", "300", "--seed", "3"),
    # The benchmark's shape: most grover gates are unitary, so shots run
    # down long chains of single-outcome gates.
    "shots_grover6": ("run", GROVER, "--param", "n=6", "--param", "N=64",
                      "--param", "m=45", "--shots", "1000", "--seed", "21"),
    "enumerate_qft3": ("enumerate", QFT, "--param", "n=3"),
    # Lowering and the decomposition tree: gate ids, per-wire gate order
    # and classical dependencies in every output format.
    "lower_teleport_dot": ("lower", TELEPORT, "--registry", TELE_REG, "--format", "dot"),
    "lower_cnot_mb_text": ("lower", CNOT, "--param", "c=1", "--param", "t=1",
                           "--format", "text"),
    "lower_grover3_json": ("lower", GROVER, "--param", "n=3", "--param", "N=8",
                           "--param", "m=5", "--format", "json"),
    "canon_cnot_mb_liberal_json": ("canon", CNOT_LIBERAL, "--param", "c=1",
                                   "--param", "t=0", "--format", "json"),
}

# ``qcasm check`` on each ill-formed fixture: the exit code and the full
# diagnostics (messages, their order, line:col and [at body...] paths).
CHECKS = sorted(FIXTURES.glob("*.qcasm"))


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return out.getvalue()


def render_check(path: pathlib.Path) -> str:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    return f"exit {code}\n{err.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert render(CASES[name]) == expected


@pytest.mark.parametrize("path", CHECKS, ids=lambda p: p.stem)
def test_check_diagnostics_match_golden(path):
    expected = (GOLDEN / f"check_{path.stem}.out").read_text(encoding="utf-8")
    assert render_check(path) == expected


# qft n=12 on the odd basis ket |j>: every one of the 4096 output
# amplitudes is a generic complex number.  The output is about 230 KB,
# so it is pinned by its SHA-256 rather than a committed file.
QFT12_KET = 2931
QFT12_SHA256 = "428354a52754daaa29f29af7beb8e44d2b9075e470b4d348a0c9d00ea9270dc0"


def test_large_state_run_matches_digest(tmp_path):
    text = (PROGRAMS / "qft.qcasm").read_text(encoding="utf-8")
    head = "param n = 3\n"
    assert head in text
    path = tmp_path / "qft12_ket.qcasm"
    path.write_text(text.replace(head, f"{head}ket {QFT12_KET:012b} on 1..n;\n"),
                    encoding="utf-8")
    out = render(("run", str(path), "--param", "n=12", "--seed", "7"))
    assert len(out) > 200_000
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == QFT12_SHA256


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.out").write_text(render(argv), encoding="utf-8")
    for path in CHECKS:
        (GOLDEN / f"check_{path.stem}.out").write_text(render_check(path), encoding="utf-8")

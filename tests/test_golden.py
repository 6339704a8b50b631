"""Golden outputs: the CLI's stdout for seeded runs, shot counts and
branch enumerations, compared byte for byte with committed files.

The README promises that the same inputs and seed produce identical
bytes; these cases pin that promise across changes to the simulator.
Regenerate the files only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py

An intended change to the float kernels may move floats, and nothing
else.  Before re-recording, check that against the committed files with
``golden_float_move``, which prints each case's largest float move and
fails on anything more:

    PYTHONPATH=src python tests/test_golden.py --compare
"""
import contextlib
import hashlib
import io
import json
import pathlib
import sys

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

# The golden float contract: across an intended kernel change, output
# parsed as JSON keeps every key, list length, label, store, count and
# string, and numbers move only in the fields below, by at most
# FLOAT_MOVE absolute (-0 equals 0).  Output that is not JSON (text and
# DOT listings, check diagnostics) holds no computed floats and stays
# byte-identical.
FLOAT_FIELDS = {"probability", "pruned_mass", "total_probability", "amplitudes"}
FLOAT_MOVE = 1e-12


def golden_float_move(expected: str, actual: str) -> float:
    """The largest float move from ``expected`` to ``actual``; raise
    AssertionError when they differ in anything but floats, or when a
    float moves by more than FLOAT_MOVE."""
    try:
        old, new = json.loads(expected), json.loads(actual)
    except ValueError:
        assert actual == expected, "non-JSON output changed"
        return 0.0
    move = _float_move(old, new, False, "$")
    assert move <= FLOAT_MOVE, f"a float moved by {move:.3g} > {FLOAT_MOVE}"
    return move


def _float_move(old, new, floats: bool, where: str) -> float:
    number = (int, float)
    if floats and type(old) in number and type(new) in number:
        return abs(float(new) - float(old))
    assert type(old) is type(new), f"{where}: {old!r} became {new!r}"
    if isinstance(old, dict):
        assert list(old) == list(new), f"{where}: keys {list(old)} became {list(new)}"
        return max((_float_move(old[k], new[k], floats or k in FLOAT_FIELDS, f"{where}.{k}")
                    for k in old), default=0.0)
    if isinstance(old, list):
        assert len(old) == len(new), f"{where}: length {len(old)} became {len(new)}"
        return max((_float_move(a, b, floats, f"{where}[{i}]")
                    for i, (a, b) in enumerate(zip(old, new))), default=0.0)
    assert old == new, f"{where}: {old!r} became {new!r}"
    return 0.0


def test_float_contract_accepts_small_float_moves():
    old = '{"probability": 0.5, "store": {"b": 1}, "amplitudes": [[0, -0.0], [1, 0]]}'
    new = '{"probability": 0.50000000000000011, "store": {"b": 1}, ' \
          '"amplitudes": [[-0.0, 0], [0.99999999999999978, 1e-17]]}'
    assert 0 < golden_float_move(old, new) < FLOAT_MOVE
    assert golden_float_move("lower text\n", "lower text\n") == 0.0


@pytest.mark.parametrize("old,new", [
    ('{"counts": [{"count": 150}]}', '{"counts": [{"count": 151}]}'),
    ('{"outcomes": [{"gate": [1, 0], "answer": 0}]}',
     '{"outcomes": [{"gate": [1, 0], "answer": 1}]}'),
    ('{"store": {"b": 0}}', '{"store": {"b": 0.0}}'),
    ('{"store": {"b": 0}}', '{"store": {"c": 0}}'),
    ('{"branches": [{"probability": 0.5}]}', '{"branches": []}'),
    ('{"probability": 0.25}', '{"probability": 0.250000001}'),
    ('{"amplitudes": [[0.5, 0]]}', '{"amplitudes": [[0.5, 1e-9]]}'),
    ('{"mq": "H"}', '{"mq": "X"}'),
    ("1 schedules\n", "2 schedules\n"),
])
def test_float_contract_rejects_any_other_change(old, new):
    with pytest.raises(AssertionError):
        golden_float_move(old, new)


# ``qcasm check`` on each ill-formed fixture: the exit code and the full
# diagnostics (messages, their order, line:col and [at body...] paths).
CHECKS = sorted(FIXTURES.glob("*.qcasm"))


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return out.getvalue()


def render_check(path: pathlib.Path, command: str = "check") -> str:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    return f"exit {code}\n{err.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert render(CASES[name]) == expected


# Every subcommand reports a rejected program with check's lines.
@pytest.mark.parametrize("command,path", [
    pytest.param(command, path, id=path.stem if command == "check" else f"{command}-{path.stem}")
    for command in ("check", "run", "enumerate", "lower", "schedules", "canon")
    for path in CHECKS])
def test_check_diagnostics_match_golden(command, path):
    expected = (GOLDEN / f"check_{path.stem}.out").read_text(encoding="utf-8")
    assert render_check(path, command) == expected


# qft n=12 on the odd basis ket |j>: every one of the 4096 output
# amplitudes is a generic complex number.  The output is about 230 KB,
# so it is pinned by its SHA-256 rather than a committed file.
QFT12_KET = 2931
QFT12_SHA256 = "cced0387a8aac69e4d3e4e1be43172d6e8db09287c15ab71e39ffa5a72c28f4a"


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


if __name__ == "__main__" and sys.argv[1:] == ["--compare"]:
    for name, argv in sorted(CASES.items()):
        expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
        print(f"{name}: max |float move| {golden_float_move(expected, render(argv)):.3g}")
elif __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.out").write_text(render(argv), encoding="utf-8")
    for path in CHECKS:
        (GOLDEN / f"check_{path.stem}.out").write_text(render_check(path), encoding="utf-8")
